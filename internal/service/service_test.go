// Loopback integration test: boots the full HTTP service on a 127.0.0.1
// listener, creates tenants of all three kinds, ingests concurrently from
// multiple goroutines through the wire API, and verifies query results
// against the exact oracle within the protocols' error bounds.
package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"disttrack/internal/oracle"
	"disttrack/internal/service"
	"disttrack/internal/stream"
)

// jsonCall issues a request and decodes the JSON response into out.
func jsonCall(t *testing.T, client *http.Client, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

func TestServiceEndToEnd(t *testing.T) {
	const (
		k     = 4
		eps   = 0.05
		phi   = 0.1
		goros = 4
		perG  = 4000
		batch = 250
	)
	srv := service.New(service.Config{SiteBuffer: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	client := ts.Client()

	// Create one tenant per kind over the wire.
	phis := []float64{0.25, 0.5, 0.75}
	for _, tc := range []service.TenantConfig{
		{Name: "clicks", Kind: service.KindHH, K: k, Eps: eps},
		{Name: "latency", Kind: service.KindQuantile, K: k, Eps: eps, Phis: phis},
		{Name: "sizes", Kind: service.KindAllQ, K: k, Eps: eps},
	} {
		if code := jsonCall(t, client, "POST", ts.URL+"/v1/tenants", tc, nil); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", tc.Name, code)
		}
	}
	// Duplicate create must 409.
	if code := jsonCall(t, client, "POST", ts.URL+"/v1/tenants",
		service.TenantConfig{Name: "clicks", Kind: service.KindHH, K: k, Eps: eps}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate create: status %d, want 409", code)
	}

	// Concurrent ingestion: one goroutine per site, each interleaving all
	// three tenants in its batches; oracles track exact ground truth.
	oHH, oQ, oAQ := oracle.New(), oracle.New(), oracle.New()
	var omu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goros; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			zipf := stream.Zipf(1000, perG, 1.4, int64(g+1))
			uni := stream.Uniform(1<<32, perG, int64(g+100))
			var recs []service.Record
			var hhVals, qVals []uint64
			flushBatch := func() {
				var resp struct {
					Accepted int                   `json:"accepted"`
					Rejected []service.RecordError `json:"rejected"`
				}
				code := jsonCall(t, client, "POST", ts.URL+"/v1/ingest",
					map[string]any{"records": recs}, &resp)
				if code != http.StatusOK || resp.Accepted != len(recs) || len(resp.Rejected) != 0 {
					t.Errorf("ingest: status %d accepted %d/%d rejected %v",
						code, resp.Accepted, len(recs), resp.Rejected)
				}
				omu.Lock()
				for _, v := range hhVals {
					oHH.Add(v)
				}
				for _, v := range qVals {
					oQ.Add(v)
					oAQ.Add(v)
				}
				omu.Unlock()
				recs, hhVals, qVals = recs[:0], hhVals[:0], qVals[:0]
			}
			for i := 0; i < perG; i++ {
				zv, _ := zipf.Next()
				uv, _ := uni.Next()
				recs = append(recs,
					service.Record{Tenant: "clicks", Site: g, Value: zv},
					service.Record{Tenant: "latency", Site: g, Value: uv},
					service.Record{Tenant: "sizes", Site: g, Value: uv},
				)
				hhVals = append(hhVals, zv)
				qVals = append(qVals, uv)
				if len(recs) >= batch*3 {
					flushBatch()
				}
			}
			if len(recs) > 0 {
				flushBatch()
			}
		}(g)
	}
	wg.Wait()
	if code := jsonCall(t, client, "POST", ts.URL+"/v1/flush", nil, nil); code != http.StatusOK {
		t.Fatalf("flush: status %d", code)
	}

	// --- Heavy hitters (hh tenant) against the oracle contract. ---
	var heavy struct {
		Items []service.Entry `json:"items"`
	}
	if code := jsonCall(t, client, "GET",
		fmt.Sprintf("%s/v1/tenants/clicks/heavy?phi=%g", ts.URL, phi), nil, &heavy); code != http.StatusOK {
		t.Fatalf("heavy: status %d", code)
	}
	reported := map[uint64]bool{}
	for _, e := range heavy.Items {
		reported[e.Item] = true
		if float64(oHH.Count(e.Item)) < (phi-eps)*float64(oHH.Len()) {
			t.Errorf("heavy false positive %d (true count %d)", e.Item, oHH.Count(e.Item))
		}
		if e.Count > oHH.Count(e.Item) {
			t.Errorf("heavy item %d: estimate %d exceeds true count %d", e.Item, e.Count, oHH.Count(e.Item))
		}
	}
	for _, x := range oHH.HeavyHitters(phi) {
		if !reported[x] {
			t.Errorf("missed heavy hitter %d", x)
		}
	}
	if len(heavy.Items) == 0 {
		t.Error("no heavy hitters reported for a Zipf stream")
	}

	// --- Tracked quantiles (quantile tenant) within eps rank error. ---
	for _, p := range phis {
		var q struct {
			Value uint64 `json:"value"`
		}
		if code := jsonCall(t, client, "GET",
			fmt.Sprintf("%s/v1/tenants/latency/quantile?phi=%g", ts.URL, p), nil, &q); code != http.StatusOK {
			t.Fatalf("quantile phi=%g: status %d", p, code)
		}
		if e := oQ.QuantileRankError(q.Value, p); e > 1.5*eps {
			t.Errorf("quantile phi=%g: rank error %.4f > %.4f", p, e, 1.5*eps)
		}
	}
	// Untracked phi must 400; hh tenant must 422.
	if code := jsonCall(t, client, "GET", ts.URL+"/v1/tenants/latency/quantile?phi=0.33", nil, nil); code != http.StatusBadRequest {
		t.Errorf("untracked phi: status %d, want 400", code)
	}
	if code := jsonCall(t, client, "GET", ts.URL+"/v1/tenants/clicks/quantile?phi=0.5", nil, nil); code != http.StatusUnprocessableEntity {
		t.Errorf("quantile on hh tenant: status %d, want 422", code)
	}

	// --- All-quantile tenant: arbitrary phis and rank queries. ---
	for _, p := range []float64{0.05, 0.31, 0.5, 0.77, 0.95} {
		var q struct {
			Value uint64 `json:"value"`
		}
		if code := jsonCall(t, client, "GET",
			fmt.Sprintf("%s/v1/tenants/sizes/quantile?phi=%g", ts.URL, p), nil, &q); code != http.StatusOK {
			t.Fatalf("allq quantile phi=%g: status %d", p, code)
		}
		if e := oAQ.QuantileRankError(q.Value, p); e > 1.5*eps {
			t.Errorf("allq quantile phi=%g: rank error %.4f > %.4f", p, e, 1.5*eps)
		}
	}
	for _, v := range []uint64{1 << 28, 1 << 30, 1<<31 + 1<<29} {
		var rk struct {
			Rank  int64 `json:"rank"`
			Total int64 `json:"total"`
		}
		if code := jsonCall(t, client, "GET",
			fmt.Sprintf("%s/v1/tenants/sizes/rank?value=%d", ts.URL, v), nil, &rk); code != http.StatusOK {
			t.Fatalf("rank %d: status %d", v, code)
		}
		if diff := math.Abs(float64(rk.Rank - oAQ.Rank(v))); diff > 1.5*eps*float64(oAQ.Len()) {
			t.Errorf("rank of %d: got %d, oracle %d (diff %g)", v, rk.Rank, oAQ.Rank(v), diff)
		}
	}

	// --- Point frequency (hh tenant): coordinator underestimate bounds. ---
	top := heavy.Items[0].Item
	var fr struct {
		Count int64 `json:"count"`
	}
	if code := jsonCall(t, client, "GET",
		fmt.Sprintf("%s/v1/tenants/clicks/freq?item=%d", ts.URL, top), nil, &fr); code != http.StatusOK {
		t.Fatalf("freq: status %d", code)
	}
	if trueC := oHH.Count(top); fr.Count > trueC || float64(fr.Count) <= float64(trueC)-eps*float64(oHH.Len()) {
		t.Errorf("freq of %d: estimate %d outside (true-eps*n, true] (true %d)", top, fr.Count, trueC)
	}

	// --- Stats: everything ingested is processed, sites add up. ---
	for name, o := range map[string]*oracle.Oracle{"clicks": oHH, "latency": oQ, "sizes": oAQ} {
		var st service.TenantStats
		if code := jsonCall(t, client, "GET", ts.URL+"/v1/tenants/"+name, nil, &st); code != http.StatusOK {
			t.Fatalf("stats %s: status %d", name, code)
		}
		if st.Processed != o.Len() {
			t.Errorf("%s processed %d, want %d", name, st.Processed, o.Len())
		}
		var sum int64
		for _, c := range st.SiteCounts {
			sum += c
		}
		if sum != st.Processed {
			t.Errorf("%s site counts sum %d != processed %d", name, sum, st.Processed)
		}
		if st.Msgs == 0 || st.Words == 0 {
			t.Errorf("%s reports no protocol communication", name)
		}
		if st.EstTotal <= 0 || st.EstTotal > o.Len() {
			t.Errorf("%s est_total %d outside (0, %d]", name, st.EstTotal, o.Len())
		}
		// Only the allq tenant keeps a rebuilt tree to report on; its
		// uniform values never deepen the tree past a round's cap.
		if hasTree := st.HeightBound > 0 && st.Rebuilds >= st.LeafSplits; hasTree != (name == "sizes") ||
			st.HeightRebuilds != 0 {
			t.Errorf("%s tree maintenance: rebuilds %d, leaf splits %d, height bound %d, height rebuilds %d in %d rounds",
				name, st.Rebuilds, st.LeafSplits, st.HeightBound, st.HeightRebuilds, st.Rounds)
		}
	}

	// --- List + delete + error paths. ---
	var listed struct {
		Tenants []service.TenantConfig `json:"tenants"`
	}
	jsonCall(t, client, "GET", ts.URL+"/v1/tenants", nil, &listed)
	if len(listed.Tenants) != 3 {
		t.Errorf("listed %d tenants, want 3", len(listed.Tenants))
	}
	if code := jsonCall(t, client, "GET", ts.URL+"/v1/tenants/ghost", nil, nil); code != http.StatusNotFound {
		t.Errorf("ghost tenant: status %d, want 404", code)
	}
	if code := jsonCall(t, client, "GET", ts.URL+"/v1/tenants/clicks/heavy?phi=bogus", nil, nil); code != http.StatusBadRequest {
		t.Errorf("bad phi: status %d, want 400", code)
	}
	if code := jsonCall(t, client, "DELETE", ts.URL+"/v1/tenants/latency", nil, nil); code != http.StatusOK {
		t.Errorf("delete: status %d", code)
	}
	if code := jsonCall(t, client, "GET", ts.URL+"/v1/tenants/latency", nil, nil); code != http.StatusNotFound {
		t.Errorf("stats after delete: status %d, want 404", code)
	}
	var ing struct {
		Accepted int                   `json:"accepted"`
		Rejected []service.RecordError `json:"rejected"`
	}
	jsonCall(t, client, "POST", ts.URL+"/v1/ingest",
		map[string]any{"records": []service.Record{{Tenant: "latency", Site: 0, Value: 1}}}, &ing)
	if ing.Accepted != 0 || len(ing.Rejected) != 1 {
		t.Errorf("ingest to deleted tenant: accepted %d rejected %v", ing.Accepted, ing.Rejected)
	}
}

func TestServiceEmptyTenantQueries(t *testing.T) {
	srv := service.New(service.Config{SiteBuffer: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	client := ts.Client()
	jsonCall(t, client, "POST", ts.URL+"/v1/tenants",
		service.TenantConfig{Name: "empty", Kind: service.KindQuantile, K: 1, Eps: 0.1}, nil)
	if code := jsonCall(t, client, "GET", ts.URL+"/v1/tenants/empty/quantile?phi=0.5", nil, nil); code != http.StatusConflict {
		t.Fatalf("quantile of empty tenant: status %d, want 409", code)
	}
	var h struct {
		Ok bool `json:"ok"`
	}
	if code := jsonCall(t, client, "GET", ts.URL+"/healthz", nil, &h); code != http.StatusOK || !h.Ok {
		t.Fatalf("healthz: status %d ok=%v", code, h.Ok)
	}
}
