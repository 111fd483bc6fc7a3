// Per-tenant QoS admission tests: the 429+Retry-After contract on the HTTP
// edge, tenant isolation (one tenant over its rate must not touch another),
// the queue-share bound, and the enriched /healthz payload shape.
package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf)
}

// TestTenantRateLimit429 drives one rate-limited tenant 10x over its rate
// and checks it is throttled — partial batch stays 200 with per-record
// rate_limited codes, a fully-throttled batch answers 429 with Retry-After —
// while a second, unlimited tenant ingests at parity the whole time.
func TestTenantRateLimit429(t *testing.T) {
	srv := New(Config{SiteBuffer: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// 0.01 rec/s with burst 1: exactly one record is admitted and the next
	// token is ~100s away, so the test can't race the refill.
	mustCreate(t, srv, TenantConfig{Name: "limited", Kind: KindHH, K: 2, Eps: 0.1,
		RateLimit: 0.01, RateBurst: 1})
	mustCreate(t, srv, TenantConfig{Name: "free", Kind: KindHH, K: 2, Eps: 0.1})

	batch := func(tenant string, n int) ingestRequest {
		req := ingestRequest{Records: make([]Record, n)}
		for i := range req.Records {
			req.Records[i] = Record{Tenant: tenant, Site: i % 2, Value: uint64(i + 1)}
		}
		return req
	}

	// Batch 1, 10x the burst: one record lands, nine throttled, still 200
	// (a blanket client retry of a 429 would double-ingest the one that
	// landed).
	var resp ingestResponse
	if code := jsonDo(t, client, "POST", ts.URL+"/v1/ingest", batch("limited", 10), &resp); code != http.StatusOK {
		t.Fatalf("partial batch: status %d, want 200", code)
	}
	if resp.Accepted != 1 || len(resp.Rejected) != 9 {
		t.Fatalf("partial batch: accepted %d rejected %d, want 1/9", resp.Accepted, len(resp.Rejected))
	}
	for _, e := range resp.Rejected {
		if e.Code != codeThrottled {
			t.Fatalf("rejection %+v: code %q, want %q", e, e.Code, codeThrottled)
		}
	}

	// Batch 2: the bucket is empty, the whole batch throttles → 429 with a
	// Retry-After hint in whole seconds.
	req, err := http.NewRequest("POST", ts.URL+"/v1/ingest", jsonBody(t, batch("limited", 10)))
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full throttle: status %d, want 429", httpResp.StatusCode)
	}
	ra, err := strconv.Atoi(httpResp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q: want integer >= 1", httpResp.Header.Get("Retry-After"))
	}

	// The unlimited tenant is untouched by its neighbour's throttling.
	var free ingestResponse
	if code := jsonDo(t, client, "POST", ts.URL+"/v1/ingest", batch("free", 10), &free); code != http.StatusOK {
		t.Fatalf("free tenant: status %d, want 200", code)
	}
	if free.Accepted != 10 || len(free.Rejected) != 0 {
		t.Fatalf("free tenant: accepted %d rejected %d, want 10/0", free.Accepted, len(free.Rejected))
	}

	// Throttle accounting surfaces on the tenant stats.
	var st TenantStats
	if code := jsonDo(t, client, "GET", ts.URL+"/v1/tenants/limited", nil, &st); code != http.StatusOK {
		t.Fatalf("tenant stats: status %d", code)
	}
	if st.Throttled != 19 {
		t.Fatalf("limited tenant throttled %d, want 19", st.Throttled)
	}
	if st.RateLimit != 0.01 || st.QueueShare != 0 {
		t.Fatalf("tenant stats QoS echo: %+v", st)
	}
	var fst TenantStats
	if code := jsonDo(t, client, "GET", ts.URL+"/v1/tenants/free", nil, &fst); code != http.StatusOK {
		t.Fatalf("tenant stats: status %d", code)
	}
	if fst.Throttled != 0 {
		t.Fatalf("free tenant throttled %d, want 0", fst.Throttled)
	}
}

// TestGroupedFrameOverBurst sends frames larger than the tenant's bucket
// through the TCP edge's ingest path, below the tenant's rate: each frame is
// admitted whole from a full bucket, and only a frame sent before the
// previous one's debt is repaid is throttled.
func TestGroupedFrameOverBurst(t *testing.T) {
	srv := New(Config{SiteBuffer: 8})
	defer srv.Close()
	// rate_burst defaults to rate_limit: a 100-token bucket, smaller than
	// the site node's default 256-value frame.
	mustCreate(t, srv, TenantConfig{Name: "edge", Kind: KindHH, K: 1, Eps: 0.1, RateLimit: 100})
	now := time.Unix(1000, 0)
	srv.Registry().Get("edge").limiter.SetClock(func() time.Time { return now })
	frame := func() []uint64 {
		vals := make([]uint64, 256)
		for i := range vals {
			vals[i] = uint64(i)
		}
		return vals
	}

	// One frame per 2.85 s is 0.9x the rate.
	for i := 0; i < 5; i++ {
		if i > 0 {
			now = now.Add(2850 * time.Millisecond)
		}
		acc, rej, thr, err := srv.ing.IngestGrouped("edge", 0, frame(), "", 0)
		if err != nil || acc != 256 || rej != 0 || thr != 0 {
			t.Fatalf("frame %d under the rate: accepted %d, rejected %d, throttled %d, err %v", i, acc, rej, thr, err)
		}
	}
	// 2.55 s after the last frame the bucket holds 99 of its 100 tokens:
	// the next frame waits for it to fill.
	now = now.Add(2550 * time.Millisecond)
	if acc, _, thr, _ := srv.ing.IngestGrouped("edge", 0, frame(), "", 0); acc != 0 || thr != 256 {
		t.Fatalf("frame before the bucket refilled: accepted %d, throttled %d; want 0, 256", acc, thr)
	}
	srv.Flush()
	if st := srv.Registry().Get("edge").Stats(); st.Processed != 5*256 || st.Throttled != 256 {
		t.Fatalf("processed %d, throttled %d; want %d, 256", st.Processed, st.Throttled, 5*256)
	}
}

// TestTenantQueueShare pins the queue-share bound against a real backlog: with
// the tenant's site goroutines stalled (a quiescent query held open), records
// sent to the cluster stay unapplied, so a tenant at its share is denied
// admission with the short queue-share retry hint — inside a batch as well as
// across calls — and is admitted again once the backlog drains.
func TestTenantQueueShare(t *testing.T) {
	srv := New(Config{SiteBuffer: 8})
	defer srv.Close()
	mustCreate(t, srv, TenantConfig{Name: "q", Kind: KindHH, K: 2, Eps: 0.1, QueueShare: 4})
	tn := srv.Registry().Get("q")
	if tn == nil {
		t.Fatal("tenant not found")
	}
	batch := func(n int) []Record {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{Tenant: "q", Site: i % 2, Value: uint64(i)}
		}
		return recs
	}

	// Stall the tracker: Query holds the engine's quiescent lock set, so the
	// site goroutines block on their first batch.
	held, release := make(chan struct{}), make(chan struct{})
	go tn.tr.Quiesce(func() { close(held); <-release })
	<-held

	// One call, six records against a share of four: the bound bites inside
	// the batch.
	acc, errs, retry := srv.ing.Ingest(batch(6))
	if acc != 4 || len(errs) != 2 || errs[0].Index != 4 || errs[0].Code != codeThrottled || errs[1].Code != codeThrottled {
		t.Fatalf("over share in one call: accepted %d errs %+v, want 4 accepted, records 4 and 5 throttled", acc, errs)
	}
	if retry != queueShareRetry {
		t.Fatalf("retry hint %v, want %v", retry, queueShareRetry)
	}
	// The four are sent but unapplied: the next call is throttled whole.
	if got := tn.backlog(); got != 4 {
		t.Fatalf("backlog %d with the tracker stalled, want 4", got)
	}
	acc, errs, _ = srv.ing.Ingest(batch(1))
	if acc != 0 || len(errs) != 1 || errs[0].Code != codeThrottled {
		t.Fatalf("at share: accepted %d errs %+v, want full throttle", acc, errs)
	}
	if got := tn.throttled.Load(); got != 3 {
		t.Fatalf("throttled %d, want 3", got)
	}

	// Backlog drains → admission resumes.
	close(release)
	srv.Flush()
	if got := tn.backlog(); got != 0 {
		t.Fatalf("backlog %d after flush, want 0", got)
	}
	acc, errs, _ = srv.ing.Ingest(batch(1))
	if acc != 1 || len(errs) != 0 {
		t.Fatalf("after drain: accepted %d errs %+v, want 1 accepted", acc, errs)
	}
	srv.Flush()
	if st := tn.Stats(); st.Processed != 5 || st.Queued != 0 {
		t.Fatalf("processed %d queued %d, want 5/0", st.Processed, st.Queued)
	}
}

// healthPayload pins the enriched /healthz JSON shape.
type healthPayload struct {
	OK            bool                  `json:"ok"`
	Tenants       int                   `json:"tenants"`
	Accepted      int64                 `json:"accepted"`
	Rejected      int64                 `json:"rejected"`
	Throttled     int64                 `json:"throttled"`
	Lost          int64                 `json:"lost"`
	UptimeSeconds float64               `json:"uptime_seconds"`
	TenantQoS     map[string]tenantQoS  `json:"tenant_qos"`
	RemoteNodes   map[string]nodeHealth `json:"remote_nodes"`
	Degraded      *bool                 `json:"degraded"`
	Durability    *durabilityHealth     `json:"durability"`
}

// durabilityHealth pins the /healthz durability section (durable servers
// only; see TestDurableHealthz for the present case).
type durabilityHealth struct {
	LastCheckpointAgeS *float64 `json:"last_checkpoint_age_s"`
	WALSegments        *int64   `json:"wal_segments"`
	RecoveredTenants   *int     `json:"recovered_tenants"`
}

type nodeHealth struct {
	Connected bool   `json:"connected"`
	LastSeq   uint64 `json:"last_seq"`
	Breaker   struct {
		State    string `json:"state"`
		Failures int    `json:"consecutive_failures"`
		Trips    int64  `json:"trips"`
		Probes   int64  `json:"probes"`
	} `json:"breaker"`
}

// TestHealthzShape boots a coordinator with a QoS-limited tenant and one
// site node, and pins the enriched /healthz payload: core counters,
// per-tenant throttle status, per-node connection + breaker state, and the
// degraded flag flipping when the node goes away.
func TestHealthzShape(t *testing.T) {
	coord, ri := startCoord(t)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	client := ts.Client()
	mustCreate(t, coord, TenantConfig{Name: "qos", Kind: KindHH, K: 2, Eps: 0.1,
		RateLimit: 1000, QueueShare: 64})
	mustCreate(t, coord, TenantConfig{Name: "plain", Kind: KindHH, K: 2, Eps: 0.1})

	node := startSiteNode(t, "edge-hz", ri.Addr())
	if acc, errs := node.Ingest([]Record{{Tenant: "qos", Site: 0, Value: 7}}); acc != 1 || len(errs) != 0 {
		t.Fatalf("node ingest: %d accepted, errs %+v", acc, errs)
	}
	if err := node.Flush(); err != nil {
		t.Fatal(err)
	}

	var h healthPayload
	if code := jsonDo(t, client, "GET", ts.URL+"/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if !h.OK || h.Tenants != 2 || h.Accepted != 1 || h.UptimeSeconds <= 0 {
		t.Fatalf("healthz core shape: %+v", h)
	}
	// No data directory → no durability section.
	if h.Durability != nil {
		t.Fatalf("durability = %+v on a non-durable server, want absent", h.Durability)
	}
	// Only the QoS-configured tenant appears in tenant_qos.
	if len(h.TenantQoS) != 1 {
		t.Fatalf("tenant_qos %+v, want exactly the limited tenant", h.TenantQoS)
	}
	q, ok := h.TenantQoS["qos"]
	if !ok || q.RateLimit != 1000 || q.QueueShare != 64 || q.Throttled != 0 {
		t.Fatalf("tenant_qos[qos] = %+v", q)
	}
	// Coordinator role: per-node health with breaker state, and degraded
	// false while the node is connected.
	if h.Degraded == nil || *h.Degraded {
		t.Fatalf("degraded = %v, want false", h.Degraded)
	}
	n, ok := h.RemoteNodes["edge-hz"]
	if !ok {
		t.Fatalf("remote_nodes %+v: missing edge-hz", h.RemoteNodes)
	}
	if !n.Connected || n.LastSeq == 0 || n.Breaker.State != "closed" || n.Breaker.Trips != 0 {
		t.Fatalf("remote_nodes[edge-hz] = %+v", n)
	}

	// Node goes away (clean close): still serving, but degraded, and the
	// node's last-known state stays visible.
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := jsonDo(t, client, "GET", ts.URL+"/healthz", nil, &h); code != http.StatusOK {
			t.Fatalf("healthz: status %d", code)
		}
		n = h.RemoteNodes["edge-hz"]
		if !n.Connected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node still connected after close: %+v", h.RemoteNodes)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h.Degraded == nil || !*h.Degraded {
		t.Fatalf("degraded = %v after node close, want true", h.Degraded)
	}
	if n.LastSeq == 0 || n.Breaker.State != "closed" {
		t.Fatalf("last-known node state lost: %+v", n)
	}
}

// TestHealthzDuringReconfigure scrapes /healthz while a QoS-limited tenant's
// site count goes 2→4→2: the handler must read the tenant's configuration
// under its lock (run under -race; ReconfigureTenant writes cfg.K).
func TestHealthzDuringReconfigure(t *testing.T) {
	srv := New(Config{SiteBuffer: 8})
	defer srv.Close()
	mustCreate(t, srv, TenantConfig{Name: "qos", Kind: KindHH, K: 2, Eps: 0.1, RateLimit: 1000, QueueShare: 64})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			for _, k := range []int{4, 2} {
				if err := srv.ReconfigureTenant("qos", k); err != nil {
					t.Errorf("reconfigure to %d: %v", k, err)
					return
				}
			}
		}
	}()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false // one last scrape after the final reconfigure
		default:
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		var h healthPayload
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("healthz: status %d, %v", rec.Code, err)
		}
		if q := h.TenantQoS["qos"]; q.RateLimit != 1000 || q.QueueShare != 64 {
			t.Fatalf("tenant_qos[qos] = %+v", q)
		}
	}
}
