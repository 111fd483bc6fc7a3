package service

import (
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"disttrack/internal/remote"
)

// TestReconfigureUnderFire drives live site add/remove against all three
// tenant kinds while ingest goroutines hammer the pipeline, then checks the
// reconfigure law: no accepted arrival is lost or double-counted across any
// number of membership changes (shrinks fold removed sites into site 0), and
// the protocols' ε-contract still holds over the stream's true total. Run
// with -race: this is also the locking discipline's stress test.
func TestReconfigureUnderFire(t *testing.T) {
	const eps = 0.05
	s := New(Config{})
	defer s.Close()
	names := []string{"hh", "quant", "allq"}
	for _, tc := range []TenantConfig{
		{Name: "hh", Kind: KindHH, K: 4, Eps: eps},
		{Name: "quant", Kind: KindQuantile, K: 4, Eps: eps, Phis: []float64{0.5}},
		{Name: "allq", Kind: KindAllQ, K: 4, Eps: eps},
	} {
		mustCreate(t, s, tc)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	sent := make([]*atomic.Int64, len(names))
	for i, name := range names {
		sent[i] = &atomic.Int64{}
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			for v := uint64(0); ; v++ {
				select {
				case <-stop:
					return
				default:
				}
				// Site 1 exists for most of the schedule but not at k=1: a
				// record validated at the old k and delivered after the shrink
				// exercises the in-flight fold; one rejected at admission is
				// simply not counted as sent.
				rec := Record{Tenant: name, Site: int(v % 2), Value: v % 128}
				if acc, _ := s.Ingest([]Record{rec}); acc == 1 {
					sent[i].Add(1)
				}
			}
		}(i, name)
	}

	schedule := []int{2, 6, 1, 5, 3}
	for _, k := range schedule {
		time.Sleep(2 * time.Millisecond)
		for _, name := range names {
			if err := s.ReconfigureTenant(name, k); err != nil {
				t.Errorf("reconfigure %s to k=%d: %v", name, k, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	s.Flush()

	if got := s.Epoch(); got != 1+uint64(len(schedule)*len(names)) {
		t.Errorf("epoch %d after %d reconfigurations, want %d",
			got, len(schedule)*len(names), 1+len(schedule)*len(names))
	}
	finalK := schedule[len(schedule)-1]
	for i, name := range names {
		st := s.reg.Get(name).Stats()
		if len(st.SiteCounts) != finalK {
			t.Errorf("%s: %d sites after reconfigure, want %d", name, len(st.SiteCounts), finalK)
		}
		var sum int64
		for _, c := range st.SiteCounts {
			sum += int64(c)
		}
		if sum != sent[i].Load() {
			t.Errorf("%s: site counts sum %d, want %d accepted (lost or double-counted across reconfigures)",
				name, sum, sent[i].Load())
		}
	}

	// ε-contract over the true totals: values cycle 0..127 uniformly.
	n := sent[0].Load()
	if f, err := s.reg.Get("hh").Frequency(7); err != nil ||
		absDiff(int64(f), n/128) > int64(eps*float64(n))+1 {
		t.Errorf("hh frequency(7)=%d err=%v, want %d ± %d", f, err, n/128, int64(eps*float64(n))+1)
	}
	if med, err := s.reg.Get("quant").Quantile(0.5); err != nil || med < 64-14 || med > 64+14 {
		t.Errorf("quant median %d err=%v, want ≈ 63", med, err)
	}
	// The allq coordinator's total is an estimate (it lags the true total by
	// at most eps·n, visibly so after a round restart); the exact check is the
	// site-count sum above.
	nq := sent[2].Load()
	if rank, total, err := s.reg.Get("allq").Rank(64); err != nil ||
		absDiff(total, nq) > int64(eps*float64(nq))+1 ||
		absDiff(rank, nq/2) > int64(2*eps*float64(nq))+1 {
		t.Errorf("allq rank(64)=%d/%d err=%v, want ≈ %d/%d", rank, total, err, nq/2, nq)
	}
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// rawNode is a hand-driven site-node connection: the socket to write frames
// to and the one frame reader that may read from it.
type rawNode struct {
	net.Conn
	rd *remote.TFrameReader
}

// send encodes one frame and writes it.
func (n *rawNode) send(f remote.TFrame) error {
	buf, err := remote.AppendTFrame(nil, f)
	if err != nil {
		return err
	}
	_, err = n.Write(buf)
	return err
}

// nodeDial performs a raw site-node handshake and returns the open
// connection plus the coordinator's welcome (or goodbye) frame.
func nodeDial(t *testing.T, addr, node string, epoch uint64) (*rawNode, remote.TFrame) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	n := &rawNode{Conn: conn, rd: remote.NewTFrameReader(conn)}
	hello := remote.TFrame{Type: remote.TypeNodeHello, Kind: remote.ProtoVersion, Tenant: node, Seq: epoch}
	if err := n.send(hello); err != nil {
		t.Fatal(err)
	}
	f, _, err := n.rd.Read()
	if err != nil {
		t.Fatal(err)
	}
	return n, f
}

// sendBatches streams value batches [from,to] (one value per frame, seq ==
// frame number, value == seq-1, site == (seq-1) % 2) and requires an ack for
// each.
func sendBatches(t *testing.T, conn *rawNode, tenant string, from, to uint64) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		f := remote.TFrame{Type: remote.TypeBatch, Seq: seq, Tenant: tenant,
			Site: uint32((seq - 1) % 2), Kind: remote.TKindHH, Values: []uint64{seq - 1}}
		if err := conn.send(f); err != nil {
			t.Fatalf("write batch %d: %v", seq, err)
		}
		ack, _, err := conn.rd.Read()
		if err != nil || ack.Type != remote.TypeBatchAck || ack.Seq != seq {
			t.Fatalf("batch %d: ack %+v err=%v", seq, ack, err)
		}
	}
}

// netFlush runs the network flush fence.
func netFlush(t *testing.T, conn *rawNode) {
	t.Helper()
	if err := conn.send(remote.TFrame{Type: remote.TypeNetFlush, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if ack, _, err := conn.rd.Read(); err != nil || ack.Type != remote.TypeNetFlushAck {
		t.Fatalf("flush ack %+v err=%v", ack, err)
	}
}

// siteSum sums a tenant's per-site counts.
func siteSum(t *testing.T, s *Server, name string) int64 {
	t.Helper()
	tn := s.reg.Get(name)
	if tn == nil {
		t.Fatalf("tenant %s missing", name)
	}
	var sum int64
	for _, c := range tn.Stats().SiteCounts {
		sum += int64(c)
	}
	return sum
}

// TestDurableCursorRestartExactlyOnce is the tentpole's crash test: a
// coordinator killed without any shutdown path recovers its per-node seq
// cursors — from the persisted cursor table merged with WAL record
// provenance, whichever is newer — so a site node replaying its entire
// unacknowledged tail after the restart lands exactly once, even though the
// replacement process never saw those frames and its in-memory dedup state
// started empty. Also pins epoch continuity: the membership epoch survives
// the crash, a stale hello is refused, and the node re-adopts it from the
// welcome.
func TestDurableCursorRestartExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	ri, err := s.ServeRemote("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s, TenantConfig{Name: "t", Kind: KindHH, K: 2, Eps: 0.1})

	conn, welcome := nodeDial(t, ri.Addr(), "n1", 0)
	if welcome.Type != remote.TypeNodeWelcome || welcome.Seq != 0 || welcome.Site != 1 {
		t.Fatalf("first welcome %+v, want seq 0 epoch 1", welcome)
	}
	sendBatches(t, conn, "t", 1, 20)
	netFlush(t, conn)
	conn.Close()

	// A membership change persists the cursor table at seq 20 and bumps the
	// epoch to 2 — so the crash below has a cursor FILE that is 20 frames
	// stale, and only the WAL tail's provenance covers 21..40. Recovery must
	// take the max of the two.
	if err := s.ReconfigureTenant("t", 3); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 2 {
		t.Fatalf("epoch %d after reconfigure, want 2", s.Epoch())
	}

	// A node that missed the change is refused until it adopts the new epoch.
	staleConn, goodbye := nodeDial(t, ri.Addr(), "n1", 1)
	if goodbye.Type != remote.TypeNodeGoodbye || goodbye.Seq != 2 {
		t.Fatalf("stale-epoch response %+v, want goodbye naming epoch 2", goodbye)
	}
	staleConn.Close()

	conn, welcome = nodeDial(t, ri.Addr(), "n1", 2)
	if welcome.Type != remote.TypeNodeWelcome || welcome.Seq != 20 || welcome.Site != 2 {
		t.Fatalf("post-reconfigure welcome %+v, want seq 20 epoch 2", welcome)
	}
	sendBatches(t, conn, "t", 21, 40)
	netFlush(t, conn)
	if sum := siteSum(t, s, "t"); sum != 40 {
		t.Fatalf("pre-crash sum %d, want 40", sum)
	}

	// Crash: no Close, no final checkpoint, no cursor save. The listener dies
	// with the process; the WAL tail (21..40) exists only as records with
	// provenance.
	conn.Close()
	ri.Close()
	abandon(s)

	r := openDurable(t, dir)
	defer r.Close()
	rs := r.RecoveryStats()
	if !rs.DurableCursors || rs.CursorNodes != 1 {
		t.Fatalf("recovery stats %+v, want durable cursors with 1 node", rs)
	}
	if r.Epoch() != 2 {
		t.Fatalf("epoch %d after crash recovery, want 2", r.Epoch())
	}
	if sum := siteSum(t, r, "t"); sum != 40 {
		t.Fatalf("recovered sum %d, want 40", sum)
	}
	ri2, err := r.ServeRemote("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// The replacement coordinator welcomes the node at the recovered cursor:
	// max(file = 20, WAL provenance = 40) = 40.
	conn, welcome = nodeDial(t, ri2.Addr(), "n1", 0)
	if welcome.Type != remote.TypeNodeWelcome || welcome.Seq != 40 || welcome.Site != 2 {
		t.Fatalf("post-crash welcome %+v, want seq 40 epoch 2", welcome)
	}
	// Replay the ENTIRE tail — far more than anything the new process ever
	// applied in memory. Every frame must be acked (so the node retires it)
	// and none may count twice.
	sendBatches(t, conn, "t", 1, 40)
	netFlush(t, conn)
	if st := ri2.srv.Stats(); st.Duplicates != 40 {
		t.Fatalf("duplicates %d after full-tail replay, want 40", st.Duplicates)
	}
	if sum := siteSum(t, r, "t"); sum != 40 {
		t.Fatalf("sum %d after full-tail replay, want 40 (double count)", sum)
	}
	// And the stream continues: the next fresh frame applies normally.
	sendBatches(t, conn, "t", 41, 41)
	netFlush(t, conn)
	if sum := siteSum(t, r, "t"); sum != 41 {
		t.Fatalf("sum %d after post-replay ingest, want 41", sum)
	}
	conn.Close()
}

// TestMembershipAdminAPI exercises the admin endpoint end to end and the
// /healthz membership block.
func TestMembershipAdminAPI(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	mustCreate(t, s, TenantConfig{Name: "api", Kind: KindHH, K: 2, Eps: 0.1})
	ingestN(t, s, "api", 10)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var resp map[string]any
	code := jsonDo(t, ts.Client(), "POST", ts.URL+"/v1/admin/membership",
		map[string]any{"tenant": "api", "k": 4}, &resp)
	if code != 200 || resp["epoch"].(float64) != 2 {
		t.Fatalf("membership: code %d resp %v", code, resp)
	}
	tn := s.reg.Get("api")
	if got := tn.K(); got != 4 {
		t.Fatalf("k %d after admin reconfigure, want 4", got)
	}
	// The live k has one home: every view of the tenant reads it.
	if got := tn.Config().K; got != 4 {
		t.Fatalf("Config().K %d after admin reconfigure, want 4", got)
	}
	if got := tn.Stats().K; got != 4 {
		t.Fatalf("Stats().K %d after admin reconfigure, want 4", got)
	}
	if list := s.reg.List(); len(list) != 1 || list[0].K != 4 {
		t.Fatalf("List() %+v after admin reconfigure, want one tenant at k 4", list)
	}
	s.Flush()
	if sum := siteSum(t, s, "api"); sum != 10 {
		t.Fatalf("sum %d after admin reconfigure, want 10", sum)
	}

	// Error mapping: unknown tenant 404, bad k 400, unknown field 400.
	if code := jsonDo(t, ts.Client(), "POST", ts.URL+"/v1/admin/membership",
		map[string]any{"tenant": "nope", "k": 2}, nil); code != 404 {
		t.Fatalf("unknown tenant: code %d, want 404", code)
	}
	if code := jsonDo(t, ts.Client(), "POST", ts.URL+"/v1/admin/membership",
		map[string]any{"tenant": "api", "k": 0}, nil); code != 400 {
		t.Fatalf("bad k: code %d, want 400", code)
	}
	if code := jsonDo(t, ts.Client(), "POST", ts.URL+"/v1/admin/membership",
		map[string]any{"tenant": "api", "k": 2, "shard": 1}, nil); code != 400 {
		t.Fatalf("unknown field: code %d, want 400", code)
	}
	// The migrate endpoint is gone, not stubbed.
	if code := jsonDo(t, ts.Client(), "POST", ts.URL+"/v1/admin/migrate",
		map[string]any{"tenant": "api", "shard": 0}, nil); code != 404 {
		t.Fatalf("removed migrate endpoint: code %d, want 404", code)
	}

	var h struct {
		Membership *MembershipStatus `json:"membership"`
	}
	if code := jsonDo(t, ts.Client(), "GET", ts.URL+"/healthz", nil, &h); code != 200 {
		t.Fatalf("healthz: code %d", code)
	}
	if h.Membership == nil || h.Membership.Epoch != 2 || h.Membership.Changes != 1 {
		t.Fatalf("healthz membership %+v, want epoch 2, 1 change", h.Membership)
	}
}

// TestDurableReconfigureRestart: a reconfigured tenant comes back at its new
// k after both a graceful restart and a crash — the checkpoint-then-meta
// persistence order with WAL replay on the crash path.
func TestDurableReconfigureRestart(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	mustCreate(t, s, TenantConfig{Name: "rk", Kind: KindHH, K: 4, Eps: 0.1})
	for v := 0; v < 40; v++ {
		if acc, _ := s.Ingest([]Record{{Tenant: "rk", Site: v % 4, Value: uint64(v)}}); acc != 1 {
			t.Fatal("ingest not accepted")
		}
	}
	s.Flush()
	// Shrink 4 → 2: sites 2 and 3 fold into site 0.
	if err := s.ReconfigureTenant("rk", 2); err != nil {
		t.Fatal(err)
	}
	// More ingest at the new shape, then crash: recovery takes the
	// post-reconfigure checkpoint plus the WAL tail.
	for v := 40; v < 50; v++ {
		if acc, _ := s.Ingest([]Record{{Tenant: "rk", Site: v % 2, Value: uint64(v)}}); acc != 1 {
			t.Fatal("ingest not accepted")
		}
	}
	s.Flush()
	abandon(s)

	r := openDurable(t, dir)
	defer r.Close()
	tn := r.reg.Get("rk")
	if tn == nil || tn.K() != 2 {
		t.Fatalf("recovered tenant k: %v, want 2", tn)
	}
	if sum := siteSum(t, r, "rk"); sum != 50 {
		t.Fatalf("recovered sum %d, want 50", sum)
	}
	if r.Epoch() != 2 {
		t.Fatalf("recovered epoch %d, want 2", r.Epoch())
	}
}

// sample returns the value of one series in s's exposition, failing the test
// when the series is absent.
func sample(t *testing.T, s *Server, series string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := s.Metrics().Expose(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("exposition has no series %s", series)
	return 0
}

// TestReconfigureKeepsCounts checks that a tenant's counts survive the
// cluster swap of a membership change, in its stats and on /metrics: the
// replacement cluster starts from zero, so the drained cluster's processed
// arrivals and batches must carry over, and a scrape taken before the swap
// must not pin the exported counter to the drained cluster's count.
func TestReconfigureKeepsCounts(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	mustCreate(t, s, TenantConfig{Name: "t", Kind: KindHH, K: 2, Eps: 0.1})
	ingest := func() {
		t.Helper()
		for b := 0; b < 2; b++ {
			recs := make([]Record, 1000)
			for i := range recs {
				recs[i] = Record{Tenant: "t", Site: 0, Value: uint64(i % 17)}
			}
			if acc, errs := s.Ingest(recs); acc != len(recs) {
				t.Fatalf("accepted %d, errs %+v", acc, errs)
			}
		}
		s.Flush()
	}
	const processed = `disttrack_cluster_processed_total{tenant="t"}`
	const batches = `disttrack_cluster_batches_total{tenant="t"}`

	ingest()
	if got := sample(t, s, processed); got != 2000 {
		t.Fatalf("%s = %g before the swap, want 2000", processed, got)
	}
	if err := s.ReconfigureTenant("t", 3); err != nil {
		t.Fatal(err)
	}
	ingest()
	st := s.reg.Get("t").Stats()
	if st.Processed != 4000 || st.Batches != 4 || st.Dropped != 0 {
		t.Errorf("stats after the swap: processed %d, batches %d, dropped %d; want 4000, 4, 0",
			st.Processed, st.Batches, st.Dropped)
	}
	if got := sample(t, s, processed); got != 4000 {
		t.Errorf("%s = %g after the swap, want 4000", processed, got)
	}
	if got := sample(t, s, batches); got != 4 {
		t.Errorf("%s = %g after the swap, want 4", batches, got)
	}
}

// TestStatsRacingReconfigure runs stats requests against membership changes
// that swap k between 8 and 1. Stats reads the site counts under Quiesce,
// which excludes the engine's Reconfigure; the tenant's live k is stored
// only after Reconfigure returns, so the loop must take k from the tracker
// inside the section. Reading the live k instead indexes past the new k and
// panics with every protocol lock held, wedging the tenant.
func TestStatsRacingReconfigure(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	mustCreate(t, s, TenantConfig{Name: "t", Kind: KindHH, K: 8, Eps: 0.1})
	tn := s.reg.Get("t")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := len(tn.Stats().SiteCounts); n != 1 && n != 8 {
					t.Errorf("stats report %d site counts, want 1 or 8", n)
					return
				}
			}
		}()
	}
	// Config and List read the live k while ReconfigureTenant writes it;
	// under -race this checks that they need no lock of their own.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, k := range []int{tn.Config().K, s.reg.List()[0].K} {
				if k != 1 && k != 8 {
					t.Errorf("config reports k %d, want 1 or 8", k)
					return
				}
			}
		}
	}()
	for i := 0; i < 400; i++ {
		k := 1
		if i%2 == 1 {
			k = 8
		}
		if err := s.ReconfigureTenant("t", k); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
