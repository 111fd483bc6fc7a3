package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"disttrack/internal/oracle"
	"disttrack/internal/remote"
	"disttrack/internal/stream"
)

// jsonDo issues a request and decodes the JSON response into out.
func jsonDo(t *testing.T, client *http.Client, method, url string, body, out any) int {
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

// startCoord brings up a server with the networked ingest listener.
func startCoord(t *testing.T) (*Server, *RemoteIngest) {
	t.Helper()
	srv := New(Config{})
	ri, err := srv.ServeRemote("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, ri
}

func startSiteNode(t *testing.T, name, upstream string) *SiteNode {
	t.Helper()
	n, err := NewSiteNode(SiteNodeConfig{
		Node:      name,
		Upstream:  upstream,
		BatchSize: 64,
		MaxDelay:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func mustCreate(t *testing.T, srv *Server, tc TenantConfig) {
	t.Helper()
	if _, err := srv.Registry().Create(tc); err != nil {
		t.Fatal(err)
	}
}

// TestDistributedMatchesInProcess is the distributed end-to-end test the
// tentpole demands: a coordinator and two site nodes over localhost TCP
// must serve the same heavy-hitter and quantile answers (within tracker
// error bounds) as the in-process path fed identical records — and
// keep doing so across a site disconnect/reconnect, with no arrival lost or
// double-counted.
func TestDistributedMatchesInProcess(t *testing.T) {
	const (
		eps    = 0.05
		phi    = 0.1
		hhK    = 4
		aqK    = 2
		hhN    = 40000
		aqN    = 8000
		half   = hhN / 2
		aqHalf = aqN / 2
	)
	coord, ri := startCoord(t)
	ref := New(Config{})
	t.Cleanup(ref.Close)
	for _, srv := range []*Server{coord, ref} {
		mustCreate(t, srv, TenantConfig{Name: "clicks", Kind: KindHH, K: hhK, Eps: eps})
		mustCreate(t, srv, TenantConfig{Name: "latency", Kind: KindAllQ, K: aqK, Eps: eps})
	}
	nodes := []*SiteNode{
		startSiteNode(t, "site-a", ri.Addr()),
		startSiteNode(t, "site-b", ri.Addr()),
	}
	// Site nodes split the tenants' sites between them: site-a owns the
	// lower half, site-b the upper half.
	nodeFor := func(site, k int) *SiteNode { return nodes[site*2/k] }

	o := oracle.New()
	gen := stream.Zipf(5000, hhN, 1.3, 42)
	hhRecs := make([]Record, 0, hhN)
	for i := 0; ; i++ {
		x, ok := gen.Next()
		if !ok {
			break
		}
		hhRecs = append(hhRecs, Record{Tenant: "clicks", Site: i % hhK, Value: x})
		o.Add(x)
	}
	// Distinct quantile values (a shuffled permutation of 0..aqN) make the
	// rank of any answer exact: rank(v) = v.
	aqRecs := make([]Record, 0, aqN)
	perm := stream.Uniform(1<<30, aqN, 7)
	for i := 0; i < aqN; i++ {
		r, _ := perm.Next()
		j := int(r % uint64(i+1))
		aqRecs = append(aqRecs, Record{})
		copy(aqRecs[j+1:], aqRecs[j:])
		aqRecs[j] = Record{Tenant: "latency", Site: i % aqK, Value: uint64(i)}
	}

	ingestVia := func(recs []Record, k int) {
		for _, rec := range recs {
			n := nodeFor(rec.Site, k)
			if acc, errs := n.Ingest([]Record{rec}); acc != 1 {
				t.Fatalf("site node rejected %+v: %v", rec, errs)
			}
		}
	}

	// Phase 1: first half through the network, with the reference server
	// fed identically in process.
	ingestVia(hhRecs[:half], hhK)
	ingestVia(aqRecs[:aqHalf], aqK)

	// Kill site-a's connection mid-stream: the node must heal and resync.
	if !ri.DisconnectNode("site-a") {
		t.Fatal("site-a was not connected")
	}

	// Phase 2: the rest, straight through the (reconnecting) nodes.
	ingestVia(hhRecs[half:], hhK)
	ingestVia(aqRecs[aqHalf:], aqK)
	for _, n := range nodes {
		if err := n.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if nodes[0].Stats().Reconnects < 1 {
		t.Fatal("site-a never recorded its reconnect")
	}

	if acc, errs := ref.Ingest(append(append([]Record{}, hhRecs...), aqRecs...)); acc != hhN+aqN {
		t.Fatalf("reference ingest accepted %d: %v", acc, errs)
	}
	ref.Flush()

	// Exactly-once across the disconnect: every arrival processed, none
	// twice, on both paths.
	for _, tc := range []struct {
		name string
		want int64
	}{{"clicks", hhN}, {"latency", aqN}} {
		for label, srv := range map[string]*Server{"coord": coord, "ref": ref} {
			st := srv.Registry().Get(tc.name).Stats()
			if st.Processed != tc.want {
				t.Errorf("%s %s processed %d arrivals, want exactly %d",
					label, tc.name, st.Processed, tc.want)
			}
		}
	}

	// Heavy hitters: both paths must satisfy the ε-contract against the
	// exact oracle, hence agree with each other up to items within ε of
	// the φ boundary.
	n := float64(o.Len())
	for label, srv := range map[string]*Server{"coord": coord, "ref": ref} {
		tenant := srv.Registry().Get("clicks")
		entries, err := tenant.HeavyHitters(phi)
		if err != nil {
			t.Fatal(err)
		}
		reported := map[uint64]bool{}
		for _, e := range entries {
			reported[e.Item] = true
			if float64(o.Count(e.Item)) < (phi-eps)*n {
				t.Errorf("%s: false positive %d (freq %d of %d)", label, e.Item, o.Count(e.Item), o.Len())
			}
		}
		for _, x := range o.HeavyHitters(phi) {
			if !reported[x] {
				t.Errorf("%s: missed heavy hitter %d (freq %d of %d)", label, x, o.Count(x), o.Len())
			}
		}
	}

	// Quantiles: with distinct values 0..aqN-1, rank(v) = v, so the
	// answer must sit within ε·n of φ·n.
	for _, q := range []float64{0.1, 0.5, 0.9} {
		for label, srv := range map[string]*Server{"coord": coord, "ref": ref} {
			v, err := srv.Registry().Get("latency").Quantile(q)
			if err != nil {
				t.Fatal(err)
			}
			if diff := float64(v) - q*aqN; diff > eps*aqN || diff < -eps*aqN {
				t.Errorf("%s: quantile(%g) = %d, outside %g±%g of n=%d",
					label, q, v, q*aqN, eps*aqN, aqN)
			}
		}
	}

	// The transport attributed traffic to both tenants.
	rs := ri.Stats()
	if rs.Frames == 0 || len(rs.Tenants) != 2 {
		t.Fatalf("remote stats missing attribution: %+v", rs)
	}
	for _, tc := range rs.Tenants {
		if tc.Words == 0 {
			t.Errorf("tenant %q has no attributed words", tc.Tenant)
		}
	}
}

// TestDistributedRejections exercises the validation split between node and
// coordinator: local rejects are immediate, unknown tenants and
// out-of-range values are refused upstream and surfaced in stats.
func TestDistributedRejections(t *testing.T) {
	coord, ri := startCoord(t)
	mustCreate(t, coord, TenantConfig{Name: "q", Kind: KindQuantile, K: 2, Eps: 0.1})
	node := startSiteNode(t, "edge", ri.Addr())

	// Locally detectable rejects, a tenant name no frame could carry among
	// them.
	acc, errs := node.Ingest([]Record{
		{Tenant: "", Site: 0, Value: 1},
		{Tenant: "q", Site: -1, Value: 1},
		{Tenant: strings.Repeat("q", remote.MaxTenantLen+1), Site: 0, Value: 1},
		{Tenant: "q", Site: 0, Value: 1},
	})
	if acc != 1 || len(errs) != 3 || errs[2].Index != 2 {
		t.Fatalf("accepted %d rejected %d, want 1/3: %v", acc, len(errs), errs)
	}
	if st := node.Stats(); st.Rejected != 3 {
		t.Fatalf("node counted %d rejected, want 3", st.Rejected)
	}

	// Unknown tenant: accepted locally, refused upstream.
	if acc, _ := node.Ingest([]Record{{Tenant: "ghost", Site: 0, Value: 1}}); acc != 1 {
		t.Fatal("unknown tenant should be accepted locally")
	}
	// Out-of-range value for a perturbed kind: filtered upstream.
	if acc, _ := node.Ingest([]Record{{Tenant: "q", Site: 0, Value: MaxPerturbedValue}}); acc != 1 {
		t.Fatal("out-of-range value should be accepted locally")
	}
	if err := node.Flush(); err != nil {
		t.Fatal(err)
	}
	st := node.Stats()
	if st.UpstreamReject < 1 || st.LastReject == "" {
		t.Fatalf("upstream rejection not surfaced: %+v", st)
	}
	deadline := time.Now().Add(2 * time.Second)
	for ri.Stats().RejectedValues < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("value filter not counted: %+v", ri.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	// Exactly the one valid record made it.
	coord.Flush()
	if got := coord.Registry().Get("q").Stats().Processed; got != 1 {
		t.Fatalf("processed %d, want 1", got)
	}
}

// TestSiteNodeIngestGroupsInterleavedRecords feeds one Ingest call whose
// records switch tenant and site in every pattern the per-tenant slot memo in
// SiteNode.Ingest has to get right — alternating sites, a site id past the
// memo, a tenant left and come back to — and requires every record to reach
// exactly its own (tenant, site) at the coordinator.
func TestSiteNodeIngestGroupsInterleavedRecords(t *testing.T) {
	coord, ri := startCoord(t)
	mustCreate(t, coord, TenantConfig{Name: "a", Kind: KindHH, K: cachedSites + 4, Eps: 0.1})
	mustCreate(t, coord, TenantConfig{Name: "b", Kind: KindHH, K: 2, Eps: 0.1})
	node := startSiteNode(t, "edge", ri.Addr())

	want := map[string][]int64{"a": make([]int64, cachedSites+4), "b": make([]int64, 2)}
	var recs []Record
	add := func(tenant string, site int) {
		recs = append(recs, Record{Tenant: tenant, Site: site, Value: uint64(len(recs))})
		want[tenant][site]++
	}
	for i := 0; i < 300; i++ {
		add("a", i%3)               // a run alternating between remembered sites
		add("a", cachedSites+1+i%2) // and sites past the memo
		if i%7 == 0 {
			add("b", i%2) // leave tenant a, then come back to slots it already opened
		}
	}
	recs = append(recs, Record{Tenant: "a", Site: -1}) // refused locally, groups nothing
	if acc, errs := node.Ingest(recs); acc != len(recs)-1 || len(errs) != 1 {
		t.Fatalf("accepted %d of %d, errors %v", acc, len(recs), errs)
	}
	if err := node.Flush(); err != nil {
		t.Fatal(err)
	}
	for name, sites := range want {
		if got := coord.Registry().Get(name).Stats().SiteCounts; !slices.Equal(got, sites) {
			t.Errorf("tenant %s: site counts %v, want %v", name, got, sites)
		}
	}
	if st := node.Stats(); st.UpstreamReject != 0 {
		t.Fatalf("coordinator refused frames: %+v", st)
	}
}

// TestDistributedHTTP drives the same topology through the HTTP surfaces:
// the site node's ingest handler and the coordinator's /v1/remote stats.
func TestDistributedHTTP(t *testing.T) {
	coord, ri := startCoord(t)
	mustCreate(t, coord, TenantConfig{Name: "hits", Kind: KindHH, K: 1, Eps: 0.1})
	node := startSiteNode(t, "edge-http", ri.Addr())

	nodeSrv := httptest.NewServer(node.Handler())
	defer nodeSrv.Close()
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()
	client := nodeSrv.Client()

	var ing ingestResponse
	code := jsonDo(t, client, http.MethodPost, nodeSrv.URL+"/v1/ingest", map[string]any{
		"records": []map[string]any{
			{"tenant": "hits", "site": 0, "value": 7},
			{"tenant": "hits", "site": 0, "value": 7},
			{"tenant": "hits", "site": 0, "value": 9},
		},
	}, &ing)
	if code != http.StatusOK || ing.Accepted != 3 {
		t.Fatalf("ingest: code %d resp %+v", code, ing)
	}
	var fl map[string]any
	if code := jsonDo(t, client, http.MethodPost, nodeSrv.URL+"/v1/flush", nil, &fl); code != http.StatusOK {
		t.Fatalf("flush code %d", code)
	}
	var freq struct {
		Count int64 `json:"count"`
	}
	code = jsonDo(t, client, http.MethodGet, coordSrv.URL+"/v1/tenants/hits/freq?item=7", nil, &freq)
	if code != http.StatusOK || freq.Count != 2 {
		t.Fatalf("freq after network flush: code %d count %d, want 2", code, freq.Count)
	}
	var rs RemoteStats
	if code := jsonDo(t, client, http.MethodGet, coordSrv.URL+"/v1/remote", nil, &rs); code != http.StatusOK {
		t.Fatalf("/v1/remote code %d", code)
	}
	if rs.Nodes != 1 || rs.Frames == 0 {
		t.Fatalf("remote stats = %+v", rs)
	}
	var health struct {
		OK    bool                       `json:"ok"`
		Stats map[string]json.RawMessage `json:"stats"`
	}
	if code := jsonDo(t, client, http.MethodGet, nodeSrv.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatal("site node healthz failed")
	}
	// The upstream link's state is two top-level stats fields.
	if !health.OK || string(health.Stats["connected"]) != "true" || string(health.Stats["dial_attempts"]) != "0" {
		t.Fatalf("site node healthz = %+v, want ok, connected, no redials", health)
	}

	// A server without remote ingest reports the endpoint unsupported.
	plain := New(Config{})
	defer plain.Close()
	plainSrv := httptest.NewServer(plain.Handler())
	defer plainSrv.Close()
	var e errBody
	if code := jsonDo(t, client, http.MethodGet, plainSrv.URL+"/v1/remote", nil, &e); code != http.StatusNotFound {
		t.Fatalf("/v1/remote on a standalone server: code %d, want 404", code)
	}
}

// TestSiteNodeCloseTimeout pins the bounded drain: with the coordinator
// gone for good, Close must give up after DrainTimeout instead of retrying
// forever.
func TestSiteNodeCloseTimeout(t *testing.T) {
	coord, ri := startCoord(t)
	mustCreate(t, coord, TenantConfig{Name: "x", Kind: KindHH, K: 1, Eps: 0.1})
	node, err := NewSiteNode(SiteNodeConfig{
		Node:         "doomed",
		Upstream:     ri.Addr(),
		DrainTimeout: 200 * time.Millisecond,
		BatchSize:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Take the coordinator away entirely, then buffer work the node can
	// never deliver.
	coord.Close()
	if acc, _ := node.Ingest([]Record{{Tenant: "x", Site: 0, Value: 1}}); acc != 1 {
		t.Fatal("ingest should accept locally")
	}
	start := time.Now()
	err = node.Close()
	if err == nil {
		t.Fatal("close with an unreachable coordinator should report the abandoned drain")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("close took %v, want ~DrainTimeout", elapsed)
	}
}

// TestServeRemoteSingleListener pins the one-listener-per-server contract.
func TestServeRemoteSingleListener(t *testing.T) {
	_, coordRI := startCoord(t)
	_ = coordRI
	srv := New(Config{})
	t.Cleanup(srv.Close)
	if _, err := srv.ServeRemote("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ServeRemote("127.0.0.1:0"); err == nil {
		t.Fatal("second ServeRemote should fail")
	}
}
