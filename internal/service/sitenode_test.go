package service

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"disttrack/internal/remote"
	"disttrack/internal/runtime"
)

// frameSink is a coordinator stand-in for the site node's batching laws: a
// real remote.IngestServer whose OnBatch records every frame per (tenant,
// site), in arrival order.
type frameSink struct {
	srv   *remote.IngestServer
	stall chan struct{} // when non-nil, OnBatch waits on it

	mu     sync.Mutex
	frames map[bufKey][][]uint64
}

func newFrameSink(t *testing.T, stall chan struct{}) *frameSink {
	t.Helper()
	s := &frameSink{stall: stall, frames: make(map[bufKey][][]uint64)}
	srv, err := remote.NewIngestServer("127.0.0.1:0", remote.IngestServerConfig{OnBatch: s.onBatch})
	if err != nil {
		t.Fatal(err)
	}
	s.srv = srv
	t.Cleanup(func() { srv.Close() })
	return s
}

func (s *frameSink) onBatch(_ string, f remote.TFrame) error {
	if s.stall != nil {
		<-s.stall
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := bufKey{f.Tenant, int(f.Site)}
	s.frames[key] = append(s.frames[key], slices.Clone(f.Values))
	runtime.PutBatch(f.Values)
	return nil
}

// sizes returns the lengths of (tenant, site)'s frames in arrival order.
func (s *frameSink) sizes(tenant string, site int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for _, f := range s.frames[bufKey{tenant, site}] {
		out = append(out, len(f))
	}
	return out
}

// values returns (tenant, site)'s values in arrival order.
func (s *frameSink) values(tenant string, site int) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []uint64
	for _, f := range s.frames[bufKey{tenant, site}] {
		out = append(out, f...)
	}
	return out
}

// sinkNode connects a site node to s.
func sinkNode(t *testing.T, s *frameSink, cfg SiteNodeConfig) *SiteNode {
	t.Helper()
	cfg.Node, cfg.Upstream = "edge", s.srv.Addr()
	n, err := NewSiteNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// seq returns n records of (tenant, site) carrying the values from, from+1, ….
func seq(tenant string, site, from, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Tenant: tenant, Site: site, Value: uint64(from + i)}
	}
	return recs
}

func isSeq(vs []uint64, n int) bool {
	if len(vs) != n {
		return false
	}
	for i, v := range vs {
		if v != uint64(i) {
			return false
		}
	}
	return true
}

// TestSiteNodeShipsFullFrames pins the frame size: a buffer ships once it
// holds exactly BatchSize values, whether they came in one call or one per
// call, and only Flush ships a shorter frame.
func TestSiteNodeShipsFullFrames(t *testing.T) {
	s := newFrameSink(t, nil)
	n := sinkNode(t, s, SiteNodeConfig{BatchSize: 10, MaxDelay: time.Hour})
	if acc, errs := n.Ingest(seq("t", 0, 0, 25)); acc != 25 || errs != nil {
		t.Fatalf("accepted %d, errors %v", acc, errs)
	}
	for i := range 25 {
		if acc, _ := n.Ingest(seq("t", 1, i, 1)); acc != 1 {
			t.Fatalf("record %d not accepted", i)
		}
	}
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	for site := range 2 {
		if got := s.sizes("t", site); !slices.Equal(got, []int{10, 10, 5}) {
			t.Errorf("site %d: frames of %v values, want [10 10 5]", site, got)
		}
		if got := s.values("t", site); !isSeq(got, 25) {
			t.Errorf("site %d: values %v, want 0..24 in order", site, got)
		}
	}
	if st := n.Stats(); st.Batches != 6 || st.Accepted != 50 {
		t.Fatalf("stats = %+v, want 6 batches / 50 accepted", st)
	}
}

// TestSiteNodeShipsByDelay: a partial buffer ships once it has waited
// MaxDelay, with no Flush.
func TestSiteNodeShipsByDelay(t *testing.T) {
	s := newFrameSink(t, nil)
	n := sinkNode(t, s, SiteNodeConfig{BatchSize: 1000, MaxDelay: 5 * time.Millisecond})
	if acc, _ := n.Ingest(seq("t", 1, 0, 3)); acc != 3 {
		t.Fatal("records not accepted")
	}
	waitCond(t, 2*time.Second, "the delayed ship", func() bool { return len(s.values("t", 1)) == 3 })
}

// TestSiteNodeBackpressure: with the coordinator stalled, Ingest blocks once
// Window frames are unacknowledged, and resumes when they are released.
func TestSiteNodeBackpressure(t *testing.T) {
	const window = 2
	stall := make(chan struct{})
	s := newFrameSink(t, stall)
	n := sinkNode(t, s, SiteNodeConfig{BatchSize: 1, MaxDelay: time.Hour, Window: window})
	var once sync.Once
	release := func() { once.Do(func() { close(stall) }) }
	t.Cleanup(release) // runs first: a failed check must not leave the coordinator stalled
	var progressed atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range 100 {
			if acc, errs := n.Ingest(seq("t", 0, i, 1)); acc != 1 {
				t.Errorf("record %d: %v", i, errs)
				return
			}
			progressed.Add(1)
		}
	}()
	waitCond(t, 2*time.Second, "a full window", func() bool {
		return progressed.Load() == window && n.Stats().Pending == window
	})
	time.Sleep(20 * time.Millisecond)
	if p := progressed.Load(); p != window {
		t.Fatalf("producer ran %d calls past a stalled coordinator, want %d", p, window)
	}
	release()
	<-done
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.values("t", 0); !isSeq(got, 100) {
		t.Fatalf("coordinator got %v, want 0..99 in order", got)
	}
}

// TestSiteNodeFlushReportsFailedShip: a frame the transport refuses is
// reported by the next Flush, once, and never counted as a shipped batch.
func TestSiteNodeFlushReportsFailedShip(t *testing.T) {
	s := newFrameSink(t, nil)
	n := sinkNode(t, s, SiteNodeConfig{BatchSize: 2, MaxDelay: time.Hour})
	n.cl.Close() // every ship from here on fails
	if acc, _ := n.Ingest(seq("t", 0, 0, 2)); acc != 2 {
		t.Fatal("records not accepted locally")
	}
	err := n.Flush()
	if !errors.Is(err, remote.ErrNodeClosed) || !strings.Contains(err.Error(), "t/0") {
		t.Fatalf("flush = %v, want the failed ship of t/0", err)
	}
	if err := n.Flush(); err == nil || strings.Contains(err.Error(), "t/0") {
		t.Fatalf("second flush = %v, want only the closed transport", err)
	}
	if st := n.Stats(); st.Batches != 0 {
		t.Fatalf("a refused frame counted as shipped: %+v", st)
	}
}

// TestSiteNodeCloseShipsAndRejects: Close ships what is buffered, and a
// later Ingest is refused.
func TestSiteNodeCloseShipsAndRejects(t *testing.T) {
	s := newFrameSink(t, nil)
	n := sinkNode(t, s, SiteNodeConfig{BatchSize: 1000, MaxDelay: time.Hour})
	if acc, _ := n.Ingest(seq("t", 2, 0, 3)); acc != 3 {
		t.Fatal("records not accepted")
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.values("t", 2); !isSeq(got, 3) {
		t.Fatalf("close shipped %v, want 0..2", got)
	}
	if acc, errs := n.Ingest(seq("t", 0, 0, 1)); acc != 0 || len(errs) != 1 {
		t.Fatalf("ingest after close accepted %d, errors %v", acc, errs)
	}
	if err := n.Flush(); err == nil {
		t.Fatal("flush after close should fail")
	}
	if err := n.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestSiteNodeConcurrentProducers races producers against the delay ticker:
// every value arrives exactly once, in each (tenant, site)'s Ingest order.
// A buffer taken out of the map and shipped in two steps (the lock released
// between them) lets the ticker's ship of the next partial buffer of the same
// (tenant, site) overtake it.
func TestSiteNodeConcurrentProducers(t *testing.T) {
	s := newFrameSink(t, nil)
	n := sinkNode(t, s, SiteNodeConfig{BatchSize: 16, MaxDelay: time.Millisecond})
	const producers, per = 8, 500
	var wg sync.WaitGroup
	for p := range producers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", p%2)
			for i := range per {
				if acc, errs := n.Ingest(seq(tenant, p, i, 1)); acc != 1 {
					t.Errorf("producer %d record %d: %v", p, i, errs)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	for p := range producers {
		if got := s.values(fmt.Sprintf("t%d", p%2), p); !isSeq(got, per) {
			t.Fatalf("producer %d: %d values, not 0..%d in order", p, len(got), per-1)
		}
	}
}

// TestSiteNodeBatchSizeLimit: a batch size no frame could carry is refused
// up front instead of failing every ship.
func TestSiteNodeBatchSizeLimit(t *testing.T) {
	_, err := NewSiteNode(SiteNodeConfig{Node: "edge", Upstream: "127.0.0.1:1", BatchSize: remote.MaxBatchLen + 1})
	if err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("NewSiteNode = %v, want the frame-limit error", err)
	}
}
