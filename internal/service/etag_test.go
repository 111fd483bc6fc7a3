// Conditional-GET tests for the query endpoints: every 200 carries a
// version ETag, a matching If-None-Match short-circuits to 304 (counted in
// disttrack_query_cache_etag_hits_total), ingest invalidates, and a
// delete/recreate cycle never resurrects an old validator.
package service_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"

	"disttrack/internal/service"
)

// getWithETag issues a GET with an optional If-None-Match header and
// returns the status, the response ETag, and the body.
func getWithETag(t *testing.T, client *http.Client, url, inm string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("ETag"), string(body)
}

// etagHits scrapes /metrics for the conditional-hit counter.
func etagHits(t *testing.T, client *http.Client, base string) int {
	t.Helper()
	_, _, body := getWithETag(t, client, base+"/metrics", "")
	m := regexp.MustCompile(`(?m)^disttrack_query_cache_etag_hits_total (\d+)$`).FindStringSubmatch(body)
	if m == nil {
		return 0
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestQueryETag(t *testing.T) {
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	client := ts.Client()

	create := func() {
		code := jsonCall(t, client, "POST", ts.URL+"/v1/tenants",
			service.TenantConfig{Name: "et", Kind: service.KindAllQ, K: 2, Eps: 0.1}, nil)
		if code != http.StatusCreated {
			t.Fatalf("create: status %d", code)
		}
	}
	ingest := func(vals ...uint64) {
		var recs []service.Record
		for i, v := range vals {
			recs = append(recs, service.Record{Tenant: "et", Site: i % 2, Value: v})
		}
		if code := jsonCall(t, client, "POST", ts.URL+"/v1/ingest",
			map[string]any{"records": recs}, nil); code != http.StatusOK {
			t.Fatalf("ingest: status %d", code)
		}
		if code := jsonCall(t, client, "POST", ts.URL+"/v1/flush", struct{}{}, nil); code != http.StatusOK {
			t.Fatalf("flush: status %d", code)
		}
	}
	create()
	ingest(5, 9, 2, 7, 4, 1, 8, 3)

	rankURL := ts.URL + "/v1/tenants/et/rank?value=5"
	code, etag, body := getWithETag(t, client, rankURL, "")
	if code != http.StatusOK || etag == "" {
		t.Fatalf("rank: status %d etag %q body %s", code, etag, body)
	}

	// A fresh validator short-circuits to 304 with no body, bumps the hit
	// counter, and echoes the ETag. List syntax and weak-prefix tolerance
	// ride the same check.
	before := etagHits(t, client, ts.URL)
	for _, inm := range []string{etag, `"zzz", ` + etag, "W/" + etag, "*"} {
		code, got, body := getWithETag(t, client, rankURL, inm)
		if code != http.StatusNotModified || got != etag || body != "" {
			t.Fatalf("If-None-Match %q: status %d etag %q body %q", inm, code, got, body)
		}
	}
	if hits := etagHits(t, client, ts.URL); hits != before+4 {
		t.Fatalf("etag hits: %d, want %d", hits, before+4)
	}

	// The same validator works across endpoints — it names coordinator
	// state, not one resource — and a stale one misses.
	if code, _, _ := getWithETag(t, client, ts.URL+"/v1/tenants/et/quantile?phi=0.5", etag); code != http.StatusNotModified {
		t.Fatalf("quantile with current validator: status %d, want 304", code)
	}
	if code, _, _ := getWithETag(t, client, rankURL, `"t0-v0"`); code != http.StatusOK {
		t.Fatalf("stale validator: status %d, want 200", code)
	}

	// Ingest enough to force an escalation (version bump): the old
	// validator must miss and the replacement must differ.
	ingest(11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26)
	code, etag2, _ := getWithETag(t, client, rankURL, etag)
	if code != http.StatusOK {
		t.Fatalf("after ingest: status %d, want 200", code)
	}
	if etag2 == "" || etag2 == etag {
		t.Fatalf("after ingest: etag %q did not change from %q", etag2, etag)
	}

	// Delete and recreate: the generation nonce keeps validators disjoint
	// even though the fresh tenant restarts at version 0-ish.
	if code := jsonCall(t, client, "DELETE", ts.URL+"/v1/tenants/et", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	create()
	ingest(5, 9, 2, 7, 4, 1, 8, 3)
	code, etag3, _ := getWithETag(t, client, rankURL, etag2)
	if code != http.StatusOK {
		t.Fatalf("recreated tenant with old validator: status %d, want 200", code)
	}
	if etag3 == etag || etag3 == etag2 {
		t.Fatalf("recreated tenant reused validator %q", etag3)
	}
}
