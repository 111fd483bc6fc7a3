package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"disttrack/internal/durable"
	"disttrack/internal/remote"
)

// openDurable opens a durable server on dir. The checkpoint interval is an
// hour so tests control checkpoint timing explicitly.
func openDurable(t *testing.T, dir string) *Server {
	t.Helper()
	s, err := Open(Config{
		DataDir:            dir,
		CheckpointInterval: time.Hour,
		Fsync:              durable.FsyncNever, // in-process "crashes" never lose the page cache
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// ingestN feeds values [0,n) one batch per value to site 0 of the tenant —
// one WAL record per value, which lets torn-tail tests reason about exactly
// which values a truncation loses.
func ingestN(t *testing.T, s *Server, tenant string, n int) {
	t.Helper()
	for v := 0; v < n; v++ {
		if acc, errs := s.Ingest([]Record{{Tenant: tenant, Site: 0, Value: uint64(v)}}); acc != 1 {
			t.Fatalf("ingest value %d: accepted %d, errs %+v", v, acc, errs)
		}
	}
	s.Flush()
}

// abandon simulates a crash: the server is dropped without Close, so no
// final checkpoint runs and the WAL is the only record of the tail. The
// leaked goroutines idle until the test process exits.
func abandon(s *Server) {
	s.dur.stopLoop()
}

// checkpointAll forces a checkpoint of every tenant now.
func checkpointAll(t *testing.T, s *Server) {
	t.Helper()
	for _, tn := range s.reg.all() {
		if err := s.checkpointTenant(tn); err != nil {
			t.Fatalf("checkpoint %s: %v", tn.cfg.Name, err)
		}
	}
}

// TestDurableCrashRecovery is the core crash test, across all three tenant
// kinds: ingest, checkpoint mid-stream, ingest more (so recovery needs both
// the checkpoint and the WAL tail), crash without Close, reopen, and verify
// the recovered trackers give exactly the answers a never-crashed server
// would. k=1 keeps delivery single-threaded, so recovered state is
// byte-for-byte deterministic, not just total-preserving.
func TestDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	for _, tc := range []TenantConfig{
		{Name: "hh", Kind: KindHH, K: 1, Eps: 0.1},
		{Name: "quant", Kind: KindQuantile, K: 1, Eps: 0.1, Phis: []float64{0.5}},
		{Name: "allq", Kind: KindAllQ, K: 1, Eps: 0.1},
	} {
		mustCreate(t, s, tc)
	}

	const half, total = 40, 80
	for _, name := range []string{"hh", "quant", "allq"} {
		ingestN(t, s, name, half)
	}
	checkpointAll(t, s)
	for _, name := range []string{"hh", "quant", "allq"} {
		for v := half; v < total; v++ {
			if acc, _ := s.Ingest([]Record{{Tenant: name, Site: 0, Value: uint64(v)}}); acc != 1 {
				t.Fatalf("ingest %s value %d not accepted", name, v)
			}
		}
	}
	s.Flush()
	abandon(s)

	r := openDurable(t, dir)
	defer r.Close()
	r.dur.mu.Lock()
	recovered, replayed := r.dur.recovered, r.dur.replayed
	r.dur.mu.Unlock()
	if recovered != 3 {
		t.Fatalf("recovered %d tenants, want 3", recovered)
	}
	// Each tenant replays its 40 post-checkpoint records.
	if replayed != 3*(total-half) {
		t.Fatalf("replayed %d WAL records, want %d", replayed, 3*(total-half))
	}
	for _, name := range []string{"hh", "quant", "allq"} {
		tn := r.reg.Get(name)
		if tn == nil {
			t.Fatalf("tenant %s not recovered", name)
		}
		st := tn.Stats()
		if st.SiteCounts[0] != total {
			t.Fatalf("%s: site count %d after recovery, want %d", name, st.SiteCounts[0], total)
		}
	}
	// Values 0..79 ingested once each: every item is a 1/80 fraction, so
	// phi=0.5 has no heavy hitters and the median is 39 or 40 (either side
	// of the even split is a valid eps-approximate answer).
	if hhs, err := r.reg.Get("hh").HeavyHitters(0.5); err != nil || len(hhs) != 0 {
		t.Fatalf("hh query after recovery: %v, %v", hhs, err)
	}
	if f, err := r.reg.Get("hh").Frequency(7); err != nil || f != 1 {
		t.Fatalf("hh frequency after recovery: %d, %v (want 1)", f, err)
	}
	med, err := r.reg.Get("quant").Quantile(0.5)
	if err != nil || med < total/2-1-8 || med > total/2+8 {
		t.Fatalf("quantile after recovery: %d, %v", med, err)
	}
	rank, tot, err := r.reg.Get("allq").Rank(40)
	if err != nil || tot != total || rank < 40-8 || rank > 40+8 {
		t.Fatalf("allq rank after recovery: rank=%d total=%d err=%v", rank, tot, err)
	}

	// The recovered server keeps working: new ingest lands on top of the
	// recovered state and the perturbation sequence does not collide with
	// replayed keys (a collision would under-count the duplicate value).
	for i := 0; i < 10; i++ {
		if acc, _ := r.Ingest([]Record{{Tenant: "allq", Site: 0, Value: 7}}); acc != 1 {
			t.Fatal("post-recovery ingest not accepted")
		}
	}
	r.Flush()
	if st := r.reg.Get("allq").Stats(); st.SiteCounts[0] != total+10 {
		t.Fatalf("post-recovery site count %d, want %d", st.SiteCounts[0], total+10)
	}
}

// TestDurableGracefulRestartNoReplay pins the shutdown contract: Close takes
// a final checkpoint, so a graceful restart recovers from the checkpoint
// alone with zero WAL replay.
func TestDurableGracefulRestartNoReplay(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	mustCreate(t, s, TenantConfig{Name: "g", Kind: KindHH, K: 2, Eps: 0.1})
	for v := 0; v < 50; v++ {
		if acc, _ := s.Ingest([]Record{{Tenant: "g", Site: v % 2, Value: uint64(v % 5)}}); acc != 1 {
			t.Fatal("ingest not accepted")
		}
		// The exact frequency asserted below holds for this arrival order;
		// without the barrier the two site goroutines may interleave another
		// way and the coordinator's (under)estimate reads 9.
		s.Flush()
	}
	s.Close()

	r := openDurable(t, dir)
	defer r.Close()
	r.dur.mu.Lock()
	recovered, replayed := r.dur.recovered, r.dur.replayed
	r.dur.mu.Unlock()
	if recovered != 1 || replayed != 0 {
		t.Fatalf("graceful restart: recovered=%d replayed=%d, want 1 and 0", recovered, replayed)
	}
	st := r.reg.Get("g").Stats()
	if st.SiteCounts[0]+st.SiteCounts[1] != 50 {
		t.Fatalf("site counts %v after graceful restart, want sum 50", st.SiteCounts)
	}
	if f, err := r.reg.Get("g").Frequency(3); err != nil || f != 10 {
		t.Fatalf("frequency after graceful restart: %d, %v (want 10)", f, err)
	}
}

// TestDurableCorruptCheckpointFallback corrupts the newest checkpoint two
// ways — frame-level bit rot, and a valid frame wrapping a payload the
// service cannot decode — and verifies recovery quarantines both and falls
// back to the older checkpoint plus a longer WAL replay, with no data loss.
func TestDurableCorruptCheckpointFallback(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	mustCreate(t, s, TenantConfig{Name: "c", Kind: KindHH, K: 1, Eps: 0.1})
	ingestN(t, s, "c", 30)
	checkpointAll(t, s) // covers seq 30
	ingestN(t, s, "c", 10)
	tn := s.reg.Get("c")
	for v := 30; v < 60; v++ {
		if acc, _ := s.Ingest([]Record{{Tenant: "c", Site: 0, Value: uint64(v)}}); acc != 1 {
			t.Fatal("ingest not accepted")
		}
	}
	s.Flush()
	checkpointAll(t, s) // covers seq 70
	_ = tn
	abandon(s)

	tenDir := filepath.Join(dir, "tenants", "c")
	flipNewestCheckpoint := func() string {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(tenDir, "ckpt-*.ckpt"))
		if err != nil || len(names) == 0 {
			t.Fatalf("checkpoint files: %v (%v)", names, err)
		}
		newest := names[len(names)-1]
		data, err := os.ReadFile(newest)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(newest, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return newest
	}
	corrupted := flipNewestCheckpoint()

	r := openDurable(t, dir)
	r.dur.mu.Lock()
	quarantined := r.dur.quarantined
	r.dur.mu.Unlock()
	if quarantined != 1 {
		t.Fatalf("quarantined %d checkpoints, want 1", quarantined)
	}
	if _, err := os.Stat(corrupted + ".corrupt"); err != nil {
		t.Fatalf("corrupt checkpoint not renamed: %v", err)
	}
	st := r.reg.Get("c").Stats()
	if st.SiteCounts[0] != 70 {
		t.Fatalf("site count %d after fallback recovery, want 70", st.SiteCounts[0])
	}
	r.Close() // writes fresh checkpoints

	// Semantic corruption: a frame that checksums cleanly but whose payload
	// the service cannot decode (here: a different tenant's). LoadCheckpoint
	// accepts it; the service must quarantine it and fall back.
	store, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dten, err := store.Tenant("c")
	if err != nil {
		t.Fatal(err)
	}
	covers, err := dten.Checkpoints()
	if err != nil || len(covers) == 0 {
		t.Fatalf("checkpoints: %v (%v)", covers, err)
	}
	if _, _, err := dten.WriteCheckpoint(covers[len(covers)-1]+1, []byte("not a service payload")); err != nil {
		t.Fatal(err)
	}

	r2 := openDurable(t, dir)
	defer r2.Close()
	r2.dur.mu.Lock()
	quarantined = r2.dur.quarantined
	r2.dur.mu.Unlock()
	if quarantined != 1 {
		t.Fatalf("semantic corruption: quarantined %d, want 1", quarantined)
	}
	if st := r2.reg.Get("c").Stats(); st.SiteCounts[0] != 70 {
		t.Fatalf("site count %d after semantic fallback, want 70", st.SiteCounts[0])
	}
}

// TestDurableTornWALTail truncates the active WAL segment mid-record — the
// torn write a real crash leaves — and verifies recovery repairs the tail,
// loses exactly the torn record, and resumes appending cleanly.
func TestDurableTornWALTail(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	mustCreate(t, s, TenantConfig{Name: "torn", Kind: KindHH, K: 1, Eps: 0.1})
	ingestN(t, s, "torn", 20) // one WAL record per value
	abandon(s)

	segs, err := filepath.Glob(filepath.Join(dir, "tenants", "torn", "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("wal segments: %v (%v)", segs, err)
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()-3); err != nil {
		t.Fatal(err)
	}

	r := openDurable(t, dir)
	defer r.Close()
	r.dur.mu.Lock()
	tornTails, replayed := r.dur.tornTails, r.dur.replayed
	r.dur.mu.Unlock()
	if tornTails != 1 || replayed != 19 {
		t.Fatalf("tornTails=%d replayed=%d, want 1 and 19", tornTails, replayed)
	}
	if st := r.reg.Get("torn").Stats(); st.SiteCounts[0] != 19 {
		t.Fatalf("site count %d after torn-tail recovery, want 19", st.SiteCounts[0])
	}
	// Appending resumes on the repaired log.
	if acc, _ := r.Ingest([]Record{{Tenant: "torn", Site: 0, Value: 99}}); acc != 1 {
		t.Fatal("post-repair ingest not accepted")
	}
	r.Flush()
	if st := r.reg.Get("torn").Stats(); st.SiteCounts[0] != 20 {
		t.Fatalf("site count %d after post-repair ingest, want 20", st.SiteCounts[0])
	}
}

// TestDurableDeleteDropsState: deleting a tenant removes its durable state,
// so it does not resurrect on the next boot.
func TestDurableDeleteDropsState(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	mustCreate(t, s, TenantConfig{Name: "gone", Kind: KindHH, K: 1, Eps: 0.1})
	mustCreate(t, s, TenantConfig{Name: "kept", Kind: KindHH, K: 1, Eps: 0.1})
	ingestN(t, s, "gone", 5)
	ingestN(t, s, "kept", 5)
	if !s.reg.Delete("gone", true) {
		t.Fatal("delete failed")
	}
	s.Close()

	r := openDurable(t, dir)
	defer r.Close()
	if r.reg.Get("gone") != nil {
		t.Fatal("deleted tenant resurrected after restart")
	}
	if tn := r.reg.Get("kept"); tn == nil || tn.Stats().SiteCounts[0] != 5 {
		t.Fatalf("kept tenant missing or wrong after restart")
	}
}

// TestDurableHealthz pins the /healthz durability section on a durable
// server: all three fields present (TestHealthzShape pins its absence on a
// non-durable one).
func TestDurableHealthz(t *testing.T) {
	s := openDurable(t, t.TempDir())
	defer s.Close()
	mustCreate(t, s, TenantConfig{Name: "h", Kind: KindHH, K: 1, Eps: 0.1})
	ingestN(t, s, "h", 3)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var h healthPayload
	if code := jsonDo(t, ts.Client(), "GET", ts.URL+"/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	d := h.Durability
	if d == nil {
		t.Fatal("durability section missing on a durable server")
	}
	if d.LastCheckpointAgeS == nil || d.WALSegments == nil || d.RecoveredTenants == nil {
		t.Fatalf("durability section incomplete: %+v", d)
	}
	if *d.LastCheckpointAgeS < 0 || *d.WALSegments != 1 || *d.RecoveredTenants != 0 {
		t.Fatalf("durability values: age=%v segments=%d recovered=%d",
			*d.LastCheckpointAgeS, *d.WALSegments, *d.RecoveredTenants)
	}
}

// TestDurableCheckpointConcurrentIngest checkpoints repeatedly while ingest
// runs, then crashes and recovers — the checkpoint/WAL consistency contract
// under real concurrency. Run with -race to check the durMu discipline.
func TestDurableCheckpointConcurrentIngest(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	mustCreate(t, s, TenantConfig{Name: "cc", Kind: KindAllQ, K: 1, Eps: 0.1})

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			checkpointAll(t, s)
		}
	}()
	const n = 2000
	for v := 0; v < n; v += 4 {
		recs := make([]Record, 0, 4)
		for j := 0; j < 4; j++ {
			recs = append(recs, Record{Tenant: "cc", Site: 0, Value: uint64(v + j)})
		}
		if acc, errs := s.Ingest(recs); acc != 4 {
			t.Errorf("ingest at %d: accepted %d, errs %+v", v, acc, errs)
			break
		}
	}
	s.Flush()
	<-done
	abandon(s)

	r := openDurable(t, dir)
	defer r.Close()
	st := r.reg.Get("cc").Stats()
	if st.SiteCounts[0] != n {
		t.Fatalf("site count %d after concurrent checkpoint crash, want %d", st.SiteCounts[0], n)
	}
	// total is the root's count: short of n only by the site's pending root
	// reports, fewer than θm ≤ εn/2h items (h = the round's height cap).
	rank, total, err := r.reg.Get("cc").Rank(1000)
	if st.HeightBound == 0 {
		t.Fatal("recovered allq tenant reports no height cap")
	}
	if slack := 0.1 * n / float64(2*st.HeightBound); err != nil || total > n || float64(total) <= n-slack ||
		rank < 1000-200 || rank > 1000+200 {
		t.Fatalf("rank after recovery: rank=%d total=%d (want within %.1f of %d) err=%v", rank, total, slack, n, err)
	}
}

// TestDurableAckedMeansAppended pins the order docs/durability.md promises: an
// ingest call appends to the WAL before it returns, so whatever has been
// acknowledged — an Ingest return on the record path, a TypeBatchAck on the
// TCP edge — is already in the log, with no Flush in between. A crash right
// after the last ack then recovers every acknowledged record.
func TestDurableAckedMeansAppended(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	mustCreate(t, s, TenantConfig{Name: "h", Kind: KindHH, K: 2, Eps: 0.1})
	mustCreate(t, s, TenantConfig{Name: "q", Kind: KindQuantile, K: 2, Eps: 0.1})
	names := []string{"h", "q"}
	accepted := map[string]int64{}
	checkAppended := func(when string) {
		t.Helper()
		for _, name := range names {
			if got := s.reg.Get(name).dur.WALStats().AppendedValues; got != accepted[name] {
				t.Fatalf("%s: tenant %s has %d values in its WAL, %d acknowledged", when, name, got, accepted[name])
			}
		}
	}
	for b := 0; b < 300; b++ {
		recs := make([]Record, 1+b%7)
		for i := range recs {
			recs[i] = Record{Tenant: names[(b+i)%2], Site: i % 2, Value: uint64(b % 11)}
			accepted[recs[i].Tenant]++
		}
		if acc, errs := s.Ingest(recs); acc != len(recs) {
			t.Fatalf("batch %d: accepted %d, errs %+v", b, acc, errs)
		}
		checkAppended(fmt.Sprintf("after Ingest %d returned", b))
	}

	ri, err := s.ServeRemote("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, welcome := nodeDial(t, ri.Addr(), "n1", 0)
	if welcome.Type != remote.TypeNodeWelcome {
		t.Fatalf("welcome %+v", welcome)
	}
	for seq := uint64(1); seq <= 50; seq++ {
		sendBatches(t, conn, "h", seq, seq) // returns once the frame is acked
		accepted["h"]++
		checkAppended(fmt.Sprintf("after the ack of frame %d", seq))
	}

	// Crash with the last acks barely out: no Flush, no Close.
	conn.Close()
	ri.Close()
	abandon(s)
	r := openDurable(t, dir)
	defer r.Close()
	for _, name := range names {
		if got := r.reg.Get(name).Stats().Processed; got != accepted[name] {
			t.Errorf("tenant %s: recovered %d records, %d were acknowledged", name, got, accepted[name])
		}
	}
}

// TestWALCountersSurviveTenantDelete checks that the WAL counters count
// every append the server made: deleting a tenant takes its WAL away, not
// the appends it already logged.
func TestWALCountersSurviveTenantDelete(t *testing.T) {
	s, err := Open(Config{DataDir: t.TempDir(), CheckpointInterval: time.Hour, Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustCreate(t, s, TenantConfig{Name: "a", Kind: KindHH, K: 1, Eps: 0.1})
	mustCreate(t, s, TenantConfig{Name: "b", Kind: KindHH, K: 1, Eps: 0.1})
	appendTo := func(name string, n int) {
		t.Helper()
		for i := 0; i < n; i++ { // one record per call: one WAL append each
			if acc, errs := s.Ingest([]Record{{Tenant: name, Value: uint64(i)}}); acc != 1 {
				t.Fatalf("ingest %s: %+v", name, errs)
			}
		}
	}
	appendTo("a", 6)
	appendTo("b", 5)
	// With -fsync always every append syncs once.
	for _, series := range []string{"disttrack_wal_appended_total", "disttrack_wal_fsync_total"} {
		if got := sample(t, s, series); got != 11 {
			t.Fatalf("%s = %g before the delete, want 11", series, got)
		}
	}
	if !s.reg.Delete("b", true) {
		t.Fatal("delete b: tenant missing")
	}
	appendTo("a", 5)
	if got := sample(t, s, "disttrack_wal_appended_total"); got != 16 {
		t.Errorf("disttrack_wal_appended_total = %g after the delete, want 16", got)
	}
	// b's WAL syncs once more as the delete closes it.
	if got := sample(t, s, "disttrack_wal_fsync_total"); got != 17 {
		t.Errorf("disttrack_wal_fsync_total = %g after the delete, want 17", got)
	}
}
