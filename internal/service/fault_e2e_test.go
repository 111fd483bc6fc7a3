// Fault-injection end-to-end test: a coordinator and two site nodes over
// real localhost TCP, one site partitioned away mid-stream. The coordinator
// must keep serving queries from last-known state (degraded, stale), the
// partitioned site must report itself disconnected and keep redialing on
// its backoff until the partition heals, and the reconverged totals must
// be exactly-once — no arrival lost or double-counted — with the whole
// episode visible on both /metrics planes.
package service

import (
	"bufio"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"disttrack/internal/fault"
)

// waitCond polls cond until it holds or the deadline passes.
func waitCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// scrapeHandler runs one GET /metrics against h and parses the text
// exposition into series → value (the full `name{labels}` is the key).
func scrapeHandler(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics scrape: status %d", rr.Code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(rr.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad exposition line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func TestFaultE2EKillSite(t *testing.T) {
	const (
		perSite = 1000
		extra   = 200
	)
	coord, ri := startCoord(t)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	client := ts.Client()
	mustCreate(t, coord, TenantConfig{Name: "clicks", Kind: KindHH, K: 2, Eps: 0.05})

	siteA := startSiteNode(t, "site-a", ri.Addr())
	inj := &fault.Injector{}
	siteB, err := NewSiteNode(SiteNodeConfig{
		Node:      "site-b",
		Upstream:  ri.Addr(),
		BatchSize: 8,
		MaxDelay:  time.Millisecond,
		Dial: inj.Dial(func(addr string) (net.Conn, error) {
			return net.Dial("tcp", addr)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { siteB.Close() })

	ingest := func(n *SiteNode, site, count, base int) {
		t.Helper()
		recs := make([]Record, count)
		for i := range recs {
			recs[i] = Record{Tenant: "clicks", Site: site, Value: uint64(base+i)%3 + 1}
		}
		if acc, errs := n.Ingest(recs); acc != count || len(errs) != 0 {
			t.Fatalf("site %d ingest: accepted %d errs %+v", site, acc, errs)
		}
	}

	// Baseline: both sites feeding, everything converges.
	ingest(siteA, 0, perSite, 0)
	ingest(siteB, 1, perSite, perSite)
	if err := siteA.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := siteB.Flush(); err != nil {
		t.Fatal(err)
	}
	tn := coord.Registry().Get("clicks")
	if got := tn.Stats().Processed; got != 2*perSite {
		t.Fatalf("baseline processed %d, want %d", got, 2*perSite)
	}
	if m := scrapeHandler(t, coord.Metrics().Handler()); m["disttrack_remote_degraded"] != 0 {
		t.Fatalf("degraded gauge %v before the fault, want 0", m["disttrack_remote_degraded"])
	}

	// Kill site-b's link: dials fail at the injector, and the established
	// connection is severed coordinator-side (a partition is silence, not a
	// close; the kick stands in for the TCP keepalive).
	inj.Partition()
	ri.DisconnectNode("site-b")
	waitCond(t, 5*time.Second, "site-b to redial", func() bool {
		st := siteB.Stats()
		return !st.Connected && st.DialAttempts >= 2
	})
	if m := scrapeHandler(t, siteB.Metrics().Handler()); m["disttrack_node_connected"] != 0 {
		t.Fatalf("partitioned site connected gauge %v, want 0", m["disttrack_node_connected"])
	}

	// Degraded, not down: the coordinator reports the node disconnected
	// with its applied state intact and keeps answering queries from
	// last-known state.
	st := ri.Stats()
	if !st.Degraded {
		t.Fatal("coordinator not degraded with a site partitioned")
	}
	if ns := st.NodeStates["site-b"]; ns.Connected || ns.LastSeq == 0 {
		t.Fatalf("site-b state %+v, want disconnected with applied seq", ns)
	}
	var heavy map[string]any
	if code := jsonDo(t, client, "GET", ts.URL+"/v1/tenants/clicks/heavy?phi=0.2", nil, &heavy); code != http.StatusOK {
		t.Fatalf("degraded query: status %d, want 200", code)
	}
	if got := tn.Stats().Processed; got != 2*perSite {
		t.Fatalf("stale state changed during partition: processed %d", got)
	}
	if m := scrapeHandler(t, coord.Metrics().Handler()); m["disttrack_remote_degraded"] != 1 ||
		m[`disttrack_remote_node_connected{node="site-b"}`] != 0 {
		t.Fatalf("degraded metrics: %v / %v",
			m["disttrack_remote_degraded"], m[`disttrack_remote_node_connected{node="site-b"}`])
	}

	// The partitioned site keeps accepting ingest locally (buffered within
	// the transport window).
	ingest(siteB, 1, extra, 2*perSite)

	// Heal. The next redial succeeds, resync replays the buffered frames,
	// and the flush barrier proves end-to-end reconvergence.
	inj.Heal()
	waitCond(t, 5*time.Second, "site-b to reconnect", func() bool { return siteB.Stats().Connected })
	if err := siteB.Flush(); err != nil {
		t.Fatal(err)
	}

	// Exactly-once: every value delivered to the pipeline exactly once
	// (transport dedup absorbs the replays), and the tracker totals agree.
	want := int64(2*perSite + extra)
	if got := ri.Stats().Values; got != want {
		t.Fatalf("transport delivered %d values, want exactly %d", got, want)
	}
	tstats := tn.Stats()
	if tstats.Processed != want {
		t.Fatalf("processed %d, want exactly %d", tstats.Processed, want)
	}
	var siteSum int64
	for _, c := range tstats.SiteCounts {
		siteSum += c
	}
	if siteSum != want {
		t.Fatalf("site counts sum %d, want %d", siteSum, want)
	}

	// The redial loop was paced by its backoff, not a hot loop.
	sb := siteB.Stats()
	if sb.DialAttempts < 2 || sb.DialAttempts > 200 {
		t.Fatalf("dial attempts %d, want a paced redial loop", sb.DialAttempts)
	}
	if sb.Reconnects != 1 {
		t.Fatalf("%d reconnects recorded after heal, want 1", sb.Reconnects)
	}

	// Both metrics planes reflect the recovery.
	if m := scrapeHandler(t, coord.Metrics().Handler()); m["disttrack_remote_degraded"] != 0 ||
		m[`disttrack_remote_node_connected{node="site-b"}`] != 1 ||
		m[`disttrack_remote_node_breaker_state{node="site-b"}`] != 0 {
		t.Fatalf("recovered coordinator metrics: degraded=%v connected=%v state=%v",
			m["disttrack_remote_degraded"],
			m[`disttrack_remote_node_connected{node="site-b"}`],
			m[`disttrack_remote_node_breaker_state{node="site-b"}`])
	}
	mb := scrapeHandler(t, siteB.Metrics().Handler())
	if mb["disttrack_node_dial_attempts_total"] != float64(sb.DialAttempts) {
		t.Fatalf("node dial attempts %v, want %d", mb["disttrack_node_dial_attempts_total"], sb.DialAttempts)
	}
	if mb["disttrack_node_connected"] != 1 {
		t.Fatalf("node connected gauge %v, want 1", mb["disttrack_node_connected"])
	}

	// And the healthy site was never disturbed.
	if sa := siteA.Stats(); !sa.Connected || sa.DialAttempts != 0 || sa.Rejected != 0 {
		t.Fatalf("site-a disturbed by site-b's partition: %+v", sa)
	}
}
