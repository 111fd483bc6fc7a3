// Metrics-plane integration tests: scrape GET /metrics over the wire, check
// the exposition parses, counters stay monotone across scrapes, and the
// mirrored wire-cost counters conserve the tenant's own accounting
// (sum over dir of disttrack_wire_* == TenantStats Msgs/Words).
package service_test

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"disttrack/internal/service"
)

// scrape fetches url and parses the text exposition into series → value.
// Lines are `name{labels} value`; the full left-hand side is the map key.
func scrape(t *testing.T, client *http.Client, url string) map[string]float64 {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET %s: Content-Type %q", url, ct)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// sumSeries sums every series of family whose label block contains all wants.
func sumSeries(m map[string]float64, family string, wants ...string) float64 {
	var sum float64
outer:
	for series, v := range m {
		if series != family && !strings.HasPrefix(series, family+"{") {
			continue
		}
		for _, w := range wants {
			if !strings.Contains(series, w) {
				continue outer
			}
		}
		sum += v
	}
	return sum
}

// waitProcessed polls the tenant stats endpoint until the site goroutines
// have fed want arrivals to the tracker (ingest is asynchronous past the site
// channels).
func waitProcessed(t *testing.T, client *http.Client, url string, want int64) service.TenantStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st service.TenantStats
		if code := jsonCall(t, client, "GET", url, nil, &st); code != http.StatusOK {
			t.Fatalf("stats: status %d", code)
		}
		if st.Processed >= want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipeline did not drain: processed %d, want %d", st.Processed, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMetricsScrapeAndConservation(t *testing.T) {
	srv := service.New(service.Config{SiteBuffer: 32})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	client := ts.Client()

	for _, tc := range []service.TenantConfig{
		{Name: "clicks", Kind: service.KindHH, K: 4, Eps: 0.05},
		{Name: "latency", Kind: service.KindQuantile, K: 4, Eps: 0.05, Phis: []float64{0.5}},
	} {
		if code := jsonCall(t, client, "POST", ts.URL+"/v1/tenants", tc, nil); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", tc.Name, code)
		}
	}

	const n, posts = 2000, 4
	recs := make([]service.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, service.Record{Tenant: "clicks", Site: i % 4, Value: uint64(i % 37)})
	}
	for p := 0; p < posts; p++ {
		if code := jsonCall(t, client, "POST", ts.URL+"/v1/ingest",
			map[string]any{"records": recs[p*n/posts : (p+1)*n/posts]}, nil); code != http.StatusOK {
			t.Fatalf("ingest: status %d", code)
		}
	}
	if code := jsonCall(t, client, "POST", ts.URL+"/v1/flush", nil, nil); code != http.StatusOK {
		t.Fatalf("flush: status %d", code)
	}
	before := waitProcessed(t, client, ts.URL+"/v1/tenants/clicks", n)

	m1 := scrape(t, client, ts.URL+"/metrics")

	// The full catalog is registered up front: every required family has at
	// least one parsed sample (unlabeled counters and histogram _count exist
	// even before events).
	for _, fam := range []string{
		"disttrack_cluster_processed_total",
		"disttrack_wire_msgs_total",
		"disttrack_ingest_accepted_total",
		"disttrack_ingest_batch_records_count",
		"disttrack_cluster_queue_depth",
		"disttrack_admission_queued",
		"disttrack_http_requests_total",
		"disttrack_remote_frames_total",
		"disttrack_uptime_seconds",
		"disttrack_build_info",
		"disttrack_tenants",
	} {
		if sumSeries(m1, fam) == 0 && !hasFamily(m1, fam) {
			t.Errorf("scrape missing family %s", fam)
		}
	}

	// The shard-worker layer's families went with it, and so did the ones
	// that repeated another family's count or never carried a sample.
	for _, fam := range deletedFamilies {
		if hasFamily(m1, fam) {
			t.Errorf("scrape still exports family %s", fam)
		}
	}

	// Ingest counters match the ingest that happened.
	if got := m1["disttrack_ingest_accepted_total"]; got != n {
		t.Errorf("accepted_total = %g, want %d", got, n)
	}
	if got := sumSeries(m1, "disttrack_cluster_processed_total", `tenant="clicks"`); got != n {
		t.Errorf("processed for clicks = %g, want %d", got, n)
	}
	if got := m1[`disttrack_tenants`]; got != 2 {
		t.Errorf("disttrack_tenants = %g, want 2", got)
	}
	// Every ingest request lands in its route's series, resolved once and
	// then reused.
	if got := m1[`disttrack_http_request_seconds_count{route="POST /v1/ingest"}`]; got != posts {
		t.Errorf("ingest latency count = %g, want %d", got, posts)
	}
	if got := m1[`disttrack_http_requests_total{route="POST /v1/ingest",method="POST",code="200"}`]; got != posts {
		t.Errorf("ingest request counter = %g, want %d", got, posts)
	}

	// Conservation: the bridge-mirrored wire counters must equal the meter's
	// own totals as served by the stats endpoint. The stream is quiescent
	// (fully processed, no concurrent ingest), so stats before and after the
	// scrape agree and pin the expected value exactly.
	after := waitProcessed(t, client, ts.URL+"/v1/tenants/clicks", n)
	if before.Msgs != after.Msgs || before.Words != after.Words {
		t.Fatalf("meter moved while quiescent: %+v vs %+v", before, after)
	}
	gotMsgs := sumSeries(m1, "disttrack_wire_msgs_total", `owner="clicks"`)
	gotWords := sumSeries(m1, "disttrack_wire_words_total", `owner="clicks"`)
	if int64(gotMsgs) != after.Msgs || int64(gotWords) != after.Words {
		t.Errorf("wire conservation: scrape %g msgs / %g words, stats %d / %d",
			gotMsgs, gotWords, after.Msgs, after.Words)
	}

	// Exercise the query path, then re-scrape: every counter family must be
	// monotone, and the query counters must have moved.
	jsonCall(t, client, "GET", ts.URL+"/v1/tenants/clicks/heavy?phi=0.1", nil, nil)
	jsonCall(t, client, "GET", ts.URL+"/v1/tenants/clicks/heavy?phi=0.1", nil, nil)
	m2 := scrape(t, client, ts.URL+"/metrics")
	for series, v1 := range m1 {
		if !strings.Contains(series, "_total") {
			continue // gauges and histogram sums may legitimately move down
		}
		if v2, ok := m2[series]; ok && v2 < v1 {
			t.Errorf("counter %s went backwards: %g -> %g", series, v1, v2)
		}
	}
	if got := sumSeries(m2, "disttrack_queries_total", `tenant="clicks"`, `query="heavy"`); got != 2 {
		t.Errorf("heavy query counter = %g, want 2", got)
	}
	if m2["disttrack_query_cache_hits_total"]+m2["disttrack_query_cache_misses_total"] < 2 {
		t.Errorf("cache counters did not move: hits %g misses %g",
			m2["disttrack_query_cache_hits_total"], m2["disttrack_query_cache_misses_total"])
	}

	// HTTP middleware labels by mux route, not raw path.
	if got := sumSeries(m2, "disttrack_http_requests_total",
		`route="GET /v1/tenants/{name}/heavy"`, `code="200"`); got != 2 {
		t.Errorf("http route counter = %g, want 2", got)
	}
}

// hasFamily reports whether any parsed series belongs to the family.
func hasFamily(m map[string]float64, family string) bool {
	for series := range m {
		if series == family || strings.HasPrefix(series, family+"{") ||
			strings.HasPrefix(series, family+"_") {
			return true
		}
	}
	return false
}

func TestMetricsTenantDeleteRemovesSeries(t *testing.T) {
	srv := service.New(service.Config{SiteBuffer: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	client := ts.Client()

	if code := jsonCall(t, client, "POST", ts.URL+"/v1/tenants",
		service.TenantConfig{Name: "ephemeral", Kind: service.KindHH, K: 2, Eps: 0.1}, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	jsonCall(t, client, "POST", ts.URL+"/v1/ingest", map[string]any{
		"records": []service.Record{{Tenant: "ephemeral", Site: 0, Value: 1}},
	}, nil)
	jsonCall(t, client, "POST", ts.URL+"/v1/flush", nil, nil)
	waitProcessed(t, client, ts.URL+"/v1/tenants/ephemeral", 1)
	m1 := scrape(t, client, ts.URL+"/metrics")
	if sumSeries(m1, "disttrack_cluster_processed_total", `tenant="ephemeral"`) != 1 {
		t.Fatalf("tenant series missing before delete:\n%v", m1)
	}

	if code := jsonCall(t, client, "DELETE", ts.URL+"/v1/tenants/ephemeral", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	m2 := scrape(t, client, ts.URL+"/metrics")
	for series := range m2 {
		if strings.Contains(series, `tenant="ephemeral"`) || strings.Contains(series, `owner="ephemeral"`) {
			t.Errorf("deleted tenant still exported: %s", series)
		}
	}
}

func TestQueryErrorStatusMapping(t *testing.T) {
	srv := service.New(service.Config{SiteBuffer: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	client := ts.Client()

	for _, tc := range []service.TenantConfig{
		{Name: "hh", Kind: service.KindHH, K: 2, Eps: 0.1},
		{Name: "quant", Kind: service.KindQuantile, K: 2, Eps: 0.1, Phis: []float64{0.5}},
		{Name: "allq", Kind: service.KindAllQ, K: 2, Eps: 0.1},
	} {
		if code := jsonCall(t, client, "POST", ts.URL+"/v1/tenants", tc, nil); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", tc.Name, code)
		}
	}

	cases := []struct {
		name string
		url  string
		want int
	}{
		{"heavy on quantile kind", "/v1/tenants/quant/heavy?phi=0.1", http.StatusUnprocessableEntity},
		{"quantile on hh kind", "/v1/tenants/hh/quantile?phi=0.5", http.StatusUnprocessableEntity},
		{"rank on hh kind", "/v1/tenants/hh/rank?value=1", http.StatusUnprocessableEntity},
		{"freq on quantile kind", "/v1/tenants/quant/freq?item=1", http.StatusUnprocessableEntity},
		// Capability beats argument validation: a bad phi on the wrong kind is
		// still 422, exactly as the old per-kind switches answered.
		{"bad phi on wrong kind", "/v1/tenants/hh/quantile?phi=7", http.StatusUnprocessableEntity},
		{"no data", "/v1/tenants/allq/quantile?phi=0.5", http.StatusConflict},
		{"bad phi on right kind", "/v1/tenants/allq/quantile?phi=7", http.StatusBadRequest},
		{"missing phi", "/v1/tenants/hh/heavy", http.StatusBadRequest},
		{"unknown tenant", "/v1/tenants/nope/heavy?phi=0.1", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body struct {
				Code string `json:"code"`
			}
			if code := jsonCall(t, client, "GET", ts.URL+tc.url, nil, &body); code != tc.want {
				t.Fatalf("GET %s: status %d (code %q), want %d", tc.url, code, body.Code, tc.want)
			}
			// A precondition applies only to a request that would otherwise
			// succeed (RFC 9110 §13.2.1): a validator matching any version
			// must not turn a failing query into a 304.
			if code, _, raw := getWithETag(t, client, ts.URL+tc.url, "*"); code != tc.want {
				t.Fatalf("GET %s with If-None-Match: *: status %d (%s), want %d", tc.url, code, raw, tc.want)
			}
		})
	}
}

func TestHealthzEnriched(t *testing.T) {
	srv := service.New(service.Config{SiteBuffer: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	client := ts.Client()

	if code := jsonCall(t, client, "POST", ts.URL+"/v1/tenants",
		service.TenantConfig{Name: "t", Kind: service.KindHH, K: 2, Eps: 0.1}, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var hz struct {
		OK         bool    `json:"ok"`
		Tenants    int     `json:"tenants"`
		Uptime     float64 `json:"uptime_seconds"`
		Version    string  `json:"version"`
		Go         string  `json:"go"`
		Membership *struct {
			Epoch uint64 `json:"epoch"`
		} `json:"membership"`
	}
	for _, path := range []string{"/healthz", "/v1/healthz"} {
		if code := jsonCall(t, client, "GET", ts.URL+path, nil, &hz); code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, code)
		}
		if !hz.OK || hz.Tenants != 1 || hz.Membership == nil || hz.Membership.Epoch != 1 {
			t.Fatalf("GET %s: %+v", path, hz)
		}
		// The worker layer's fields are gone with it.
		var raw map[string]any
		jsonCall(t, client, "GET", ts.URL+path, nil, &raw)
		for _, gone := range []string{"shards", "shard_queue_depth"} {
			if _, ok := raw[gone]; ok {
				t.Errorf("GET %s still reports %q", path, gone)
			}
		}
		if hz.Uptime <= 0 || hz.Version == "" || hz.Go == "" {
			t.Fatalf("GET %s missing build/uptime metadata: %+v", path, hz)
		}
	}
}

// TestClusterQueueDepthCountsBatches scrapes under the load of
// TestConcurrentProducersOneTenant: a tenant has one queue per site, so
// disttrack_cluster_queue_depth is a number of batches (the help text says
// so) and can never exceed k x SiteBuffer.
func TestClusterQueueDepthCountsBatches(t *testing.T) {
	const k, siteBuffer = 4, 4
	const producers, calls, batch, values = 8, 40, 64, 16
	srv := service.New(service.Config{SiteBuffer: siteBuffer})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	client := ts.Client()
	if code := jsonCall(t, client, "POST", ts.URL+"/v1/tenants",
		service.TenantConfig{Name: "q", Kind: service.KindQuantile, K: k, Eps: 0.1}, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			recs := make([]service.Record, batch)
			for c := 0; c < calls; c++ {
				for i := range recs {
					recs[i] = service.Record{Tenant: "q", Site: (p + i) % k, Value: uint64((c + i) % values)}
				}
				if acc, errs := srv.Ingest(recs); acc != batch || len(errs) != 0 {
					t.Errorf("producer %d: accepted %d, errs %v", p, acc, errs)
					return
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	const series = `disttrack_cluster_queue_depth{tenant="q"}`
	for loading := true; loading; {
		select {
		case <-done:
			loading = false // one more scrape, after the load
		default:
		}
		m := scrape(t, client, ts.URL+"/metrics")
		depth, ok := m[series]
		if !ok {
			t.Fatalf("scrape has no %s", series)
		}
		if depth > k*siteBuffer {
			t.Fatalf("%s = %g, above the k x SiteBuffer ceiling %d", series, depth, k*siteBuffer)
		}
	}

	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	help := ""
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "# HELP disttrack_cluster_queue_depth ") {
			help = line
		}
	}
	if !strings.Contains(strings.ToLower(help), "batches") {
		t.Fatalf("queue depth help does not name its unit (batches): %q", help)
	}
}

// TestMetricsFeedWhileScraping hammers ingest from several goroutines while
// continuously scraping /metrics; run under -race this exercises every
// update discipline (inline atomics, direct observes, func-backed reads,
// scrape-hook mirrors)
// against concurrent exposition.
func TestMetricsFeedWhileScraping(t *testing.T) {
	srv := service.New(service.Config{SiteBuffer: 32})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	client := ts.Client()

	for _, tc := range []service.TenantConfig{
		{Name: "a", Kind: service.KindHH, K: 2, Eps: 0.1},
		{Name: "b", Kind: service.KindAllQ, K: 2, Eps: 0.1},
	} {
		if code := jsonCall(t, client, "POST", ts.URL+"/v1/tenants", tc, nil); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", tc.Name, code)
		}
	}

	const (
		feeders = 3
		rounds  = 20
		batch   = 50
	)
	var wg sync.WaitGroup
	for g := 0; g < feeders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				recs := make([]service.Record, 0, batch)
				for i := 0; i < batch; i++ {
					name := "a"
					if i%2 == 0 {
						name = "b"
					}
					recs = append(recs, service.Record{
						Tenant: name, Site: i % 2, Value: uint64(g*1000 + r*batch + i),
					})
				}
				if code := jsonCall(t, client, "POST", ts.URL+"/v1/ingest",
					map[string]any{"records": recs}, nil); code != http.StatusOK {
					t.Errorf("ingest: status %d", code)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	scrapes := 0
	for {
		select {
		case <-done:
			if scrapes == 0 {
				t.Fatal("no scrape overlapped the feed")
			}
			// Final consistency after the dust settles.
			jsonCall(t, client, "POST", ts.URL+"/v1/flush", nil, nil)
			total := int64(feeders * rounds * batch)
			waitProcessed(t, client, ts.URL+"/v1/tenants/a", total/2)
			waitProcessed(t, client, ts.URL+"/v1/tenants/b", total/2)
			m := scrape(t, client, ts.URL+"/metrics")
			if got := m["disttrack_ingest_accepted_total"]; int64(got) != total {
				t.Fatalf("accepted_total = %g, want %d", got, total)
			}
			processed := sumSeries(m, "disttrack_cluster_processed_total", `tenant="a"`) +
				sumSeries(m, "disttrack_cluster_processed_total", `tenant="b"`)
			if int64(processed) != total {
				t.Fatalf("processed = %g, want %d", processed, total)
			}
			return
		default:
			resp, err := client.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("scrape status %d", resp.StatusCode)
			}
			scrapes++
		}
	}
}

// deletedFamilies must stay absent from every scrape: the shard-worker
// layer's families, and the ones that repeated another family's count or
// never carried a sample.
var deletedFamilies = []string{
	"disttrack_shard_queue_depth",
	"disttrack_migrations_total",
	"disttrack_migration_duration_seconds",
	// Same count as disttrack_cluster_processed_total.
	"disttrack_engine_feeds_total",
	// Sent minus processed is disttrack_admission_queued.
	"disttrack_tenant_sent_total",
	// Folded into disttrack_tenant_dropped_total.
	"disttrack_cluster_dropped_total",
	// Tenant meters keep no kind breakdown, and only the transport meter
	// attributes traffic to tenants.
	"disttrack_wire_kind_msgs_total",
	"disttrack_wire_kind_words_total",
	"disttrack_wire_tenant_msgs_total",
	"disttrack_wire_tenant_words_total",
	// The transport meter's kinds repeat the remote frame, reject and flush
	// counters.
	"disttrack_remote_wire_kind_msgs_total",
	"disttrack_remote_wire_kind_words_total",
	// Occupancy times -window.
	"disttrack_node_pending_frames",
}

// catalog returns the sorted family names reg exposes (its # TYPE lines).
func catalog(t *testing.T, expose func(io.Writer) error) []string {
	t.Helper()
	var sb strings.Builder
	if err := expose(&sb); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return names
}

// TestMetricsCatalog pins the exact family list of a durable coordinator
// with a TCP listener and of a site node: a family added or deleted must
// show up here.
func TestMetricsCatalog(t *testing.T) {
	srv, err := service.Open(service.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ri, err := srv.ServeRemote("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node, err := service.NewSiteNode(service.SiteNodeConfig{Node: "edge", Upstream: ri.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	server := catalog(t, srv.Metrics().Expose)
	site := catalog(t, node.Metrics().Expose)
	wantServer := []string{
		"disttrack_admission_queued",
		"disttrack_admission_throttled_total",
		"disttrack_build_info",
		"disttrack_checkpoint_bytes",
		"disttrack_checkpoint_duration_seconds",
		"disttrack_checkpoint_errors_total",
		"disttrack_checkpoint_total",
		"disttrack_cluster_batches_total",
		"disttrack_cluster_processed_total",
		"disttrack_cluster_queue_depth",
		"disttrack_engine_batch_runs_total",
		"disttrack_engine_batch_splits_total",
		"disttrack_engine_boot_handoffs_total",
		"disttrack_engine_cascade_hold_seconds",
		"disttrack_engine_escalations_total",
		"disttrack_engine_quiesce_hold_seconds",
		"disttrack_engine_saved_acquires_total",
		"disttrack_engine_slow_path_acquires_total",
		"disttrack_engine_slow_path_hold_seconds",
		"disttrack_http_inflight_requests",
		"disttrack_http_request_seconds",
		"disttrack_http_requests_total",
		"disttrack_ingest_accepted_total",
		"disttrack_ingest_batch_records",
		"disttrack_ingest_decode_total",
		"disttrack_ingest_lost_total",
		"disttrack_ingest_rejected_total",
		"disttrack_ingest_seconds",
		"disttrack_ingest_throttled_total",
		"disttrack_last_checkpoint_age_seconds",
		"disttrack_membership_changes_total",
		"disttrack_membership_epoch",
		"disttrack_queries_total",
		"disttrack_query_cache_etag_hits_total",
		"disttrack_query_cache_hits_total",
		"disttrack_query_cache_misses_total",
		"disttrack_remote_bytes_in_total",
		"disttrack_remote_bytes_out_total",
		"disttrack_remote_degraded",
		"disttrack_remote_duplicates_total",
		"disttrack_remote_epoch_refused_hellos_total",
		"disttrack_remote_flushes_total",
		"disttrack_remote_frames_total",
		"disttrack_remote_node_breaker_state",
		"disttrack_remote_node_breaker_trips_total",
		"disttrack_remote_node_connected",
		"disttrack_remote_nodes",
		"disttrack_remote_refused_hellos_total",
		"disttrack_remote_rejected_frames_total",
		"disttrack_remote_rejected_values_total",
		"disttrack_remote_throttled_values_total",
		"disttrack_remote_values_total",
		"disttrack_remote_wire_msgs_total",
		"disttrack_remote_wire_tenant_msgs_total",
		"disttrack_remote_wire_tenant_words_total",
		"disttrack_remote_wire_words_total",
		"disttrack_tenant_dropped_total",
		"disttrack_tenant_ties_total",
		"disttrack_tenants",
		"disttrack_uptime_seconds",
		"disttrack_wal_appended_total",
		"disttrack_wal_errors_total",
		"disttrack_wal_fsync_total",
		"disttrack_wal_replayed_total",
		"disttrack_wire_msgs_total",
		"disttrack_wire_words_total",
	}
	wantSite := []string{
		"disttrack_build_info",
		"disttrack_ingest_decode_total",
		"disttrack_node_accepted_total",
		"disttrack_node_batches_total",
		"disttrack_node_bytes_total",
		"disttrack_node_connected",
		"disttrack_node_dial_attempts_total",
		"disttrack_node_reconnects_total",
		"disttrack_node_rejected_total",
		"disttrack_node_resent_frames_total",
		"disttrack_node_upstream_rejects_total",
		"disttrack_node_uptime_seconds",
		"disttrack_node_window_occupancy",
	}
	if !slices.Equal(server, wantServer) {
		t.Errorf("server catalog (%d families):\n%q\nwant (%d):\n%q", len(server), server, len(wantServer), wantServer)
	}
	if !slices.Equal(site, wantSite) {
		t.Errorf("site catalog (%d families):\n%q\nwant (%d):\n%q", len(site), site, len(wantSite), wantSite)
	}
	for _, fam := range deletedFamilies {
		if slices.Contains(server, fam) || slices.Contains(site, fam) {
			t.Errorf("catalog still has deleted family %s", fam)
		}
	}
}
