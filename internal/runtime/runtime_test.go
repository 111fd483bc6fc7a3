package runtime

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"disttrack/internal/core/hh"
	"disttrack/internal/oracle"
	"disttrack/internal/stream"
)

func TestConcurrentIngestionPreservesContract(t *testing.T) {
	const k, eps, phi = 8, 0.05, 0.1
	tr, err := hh.New(hh.Config{K: k, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(context.Background(), tr, k, 64)
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.New()
	var omu sync.Mutex

	// One producer goroutine per site, each with its own stream slice.
	var wg sync.WaitGroup
	for j := 0; j < k; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			g := stream.Zipf(10000, 5000, 1.4, int64(j))
			buf := GetBatch(64)
			for {
				x, ok := g.Next()
				if !ok {
					break
				}
				omu.Lock()
				o.Add(x)
				omu.Unlock()
				if buf = append(buf, x); len(buf) == 64 {
					if err := c.SendBatch(j, buf); err != nil {
						t.Errorf("send: %v", err)
						return
					}
					buf = GetBatch(64)
				}
			}
			if err := c.SendBatch(j, buf); err != nil {
				t.Errorf("send: %v", err)
			}
		}(j)
	}
	wg.Wait()
	c.Drain()

	if got := c.Processed(); got != int64(k)*5000 {
		t.Fatalf("processed %d, want %d", got, k*5000)
	}
	// Contract at the end (the oracle total matches exactly after Drain).
	tr.Quiesce(func() { checkHeavyHitters(t, tr, o, phi, eps) })
}

// checkHeavyHitters asserts the φ-heavy-hitter contract against the oracle:
// nothing below (φ-ε)n reported, nothing at or above φn missed.
func checkHeavyHitters(t *testing.T, tr *hh.Tracker, o *oracle.Oracle, phi, eps float64) {
	t.Helper()
	reported := map[uint64]bool{}
	for _, x := range tr.HeavyHitters(phi) {
		reported[x] = true
		if float64(o.Count(x)) < (phi-eps)*float64(o.Len()) {
			t.Errorf("false positive %d", x)
		}
	}
	for _, x := range o.HeavyHitters(phi) {
		if !reported[x] {
			t.Errorf("missed heavy hitter %d", x)
		}
	}
}

func TestQueryWhileIngesting(t *testing.T) {
	const k = 4
	tr, _ := hh.New(hh.Config{K: k, Eps: 0.1})
	c, _ := New(context.Background(), tr, k, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			if err := c.SendBatch(i%k, []uint64{uint64(i % 100)}); err != nil {
				return
			}
		}
	}()
	// Interleaved queries must never observe a torn coordinator state
	// (EstTotal is monotone under the lock).
	var last int64
	for i := 0; i < 200; i++ {
		tr.Quiesce(func() {
			if et := tr.EstTotal(); et < last {
				t.Errorf("EstTotal went backwards: %d after %d", et, last)
			} else {
				last = et
			}
		})
	}
	<-done
	c.Drain()
}

func TestStopCancelsPromptly(t *testing.T) {
	tr, _ := hh.New(hh.Config{K: 2, Eps: 0.1})
	c, _ := New(context.Background(), tr, 2, 1)
	c.Stop()
	if err := c.SendBatch(0, []uint64{1}); err != ErrStopped {
		t.Fatalf("SendBatch after Stop = %v, want ErrStopped", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tr, _ := hh.New(hh.Config{K: 2, Eps: 0.1})
	c, _ := New(ctx, tr, 2, 1)
	cancel()
	deadline := time.After(2 * time.Second)
	for {
		if err := c.SendBatch(0, []uint64{1}); err == ErrStopped {
			break
		}
		select {
		case <-deadline:
			t.Fatal("SendBatch did not observe cancellation")
		default:
		}
	}
	c.Stop()
}

func TestNewValidation(t *testing.T) {
	tr, _ := hh.New(hh.Config{K: 2, Eps: 0.1})
	if _, err := New(context.Background(), tr, 0, 1); err == nil {
		t.Fatal("k=0 should error")
	}
}

// TestSendBatchMatchesSend feeds per-site Zipf streams through SendBatch in
// 64-value batches and checks the cluster's accounting and the tracker's
// heavy-hitter contract against the oracle. (The name predates the removal
// of the per-item Send path it was once compared with.)
func TestSendBatchMatchesSend(t *testing.T) {
	const k, eps, phi = 4, 0.05, 0.1
	tr, err := hh.New(hh.Config{K: k, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(context.Background(), tr, k, 16)
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.New()
	for j := 0; j < k; j++ {
		g := stream.Zipf(10000, 4000, 1.4, int64(j))
		var buf []uint64
		for {
			x, ok := g.Next()
			if !ok {
				break
			}
			o.Add(x)
			buf = append(buf, x)
			if len(buf) == 64 {
				if err := c.SendBatch(j, buf); err != nil {
					t.Fatal(err)
				}
				buf = nil
			}
		}
		if err := c.SendBatch(j, buf); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain()

	if tr.TrueTotal() != int64(o.Len()) {
		t.Fatalf("TrueTotal = %d, want %d", tr.TrueTotal(), o.Len())
	}
	st := c.Stats()
	if st.Processed != tr.TrueTotal() {
		t.Errorf("cluster processed %d, want %d", st.Processed, tr.TrueTotal())
	}
	if st.Batches == 0 {
		t.Error("cluster reports zero batch deliveries")
	}
	if st.Dropped != 0 {
		t.Errorf("drained cluster reports %d dropped", st.Dropped)
	}
	checkHeavyHitters(t, tr, o, phi, eps)
}

func TestSendBatchValidation(t *testing.T) {
	tr, _ := hh.New(hh.Config{K: 2, Eps: 0.1})
	c, _ := New(context.Background(), tr, 2, 1)
	defer c.Drain()
	if err := c.SendBatch(5, []uint64{1}); err == nil {
		t.Fatal("out-of-range site should error")
	}
	if err := c.SendBatch(0, nil); err != nil {
		t.Fatalf("empty batch should be a no-op, got %v", err)
	}
}

// feedSignal wraps a Tracker and closes entered when the first
// FeedLocalBatch call begins, so a test can wait until a site has begun a
// batch, not merely dequeued it.
type feedSignal struct {
	Tracker
	once    sync.Once
	entered chan struct{}
}

func (f *feedSignal) FeedLocalBatch(site int, xs []uint64) {
	f.once.Do(func() { close(f.entered) })
	f.Tracker.FeedLocalBatch(site, xs)
}

// TestStopCountsDropped fills one site's queue behind a stalled site
// goroutine and pins the one queue's accounting: QueueDepth counts batches
// and stops at the buffer size, Stop processes the batch the site has begun
// and counts exactly the queued values as Dropped, and a late SendBatch
// gets ErrStopped.
func TestStopCountsDropped(t *testing.T) {
	const k, buf = 2, 8
	tr, _ := hh.New(hh.Config{K: k, Eps: 0.1})
	sig := &feedSignal{Tracker: tr, entered: make(chan struct{})}
	c, _ := New(context.Background(), sig, k, buf)
	// Hold the protocol lock so site 0's goroutine stalls inside the first
	// batch it takes, leaving everything sent after it queued.
	locked := make(chan struct{})
	block := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr.Quiesce(func() { close(locked); <-block })
	}()
	<-locked
	inFlight := []uint64{1, 2, 3}
	if err := c.SendBatch(0, inFlight); err != nil {
		t.Fatal(err)
	}
	<-sig.entered // the site has begun the in-flight batch
	var queued int64
	for i := 0; i < buf; i++ {
		xs := make([]uint64, i+1) // uneven sizes: Dropped counts values, not batches
		queued += int64(len(xs))
		if err := c.SendBatch(0, xs); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(c.batches[0]); got != buf {
		t.Fatalf("site 0 holds %d queued batches, want the full buffer %d", got, buf)
	}
	if got := c.QueueDepth(); got != buf || got > k*buf {
		t.Fatalf("QueueDepth = %d, want %d (one full site, ceiling k*buf = %d)", got, buf, k*buf)
	}
	// Set the stop flag before releasing the lock: the site finishes its
	// in-flight batch, then drops every queued one for Stop to count.
	c.stopped.Store(true)
	close(block)
	c.Stop()
	wg.Wait()
	st := c.Stats()
	if st.Dropped != queued || st.Dropped != c.Dropped() {
		t.Fatalf("Stop dropped %d (Dropped() %d), want exactly the %d queued values (stats %+v)",
			st.Dropped, c.Dropped(), queued, st)
	}
	if st.Processed != int64(len(inFlight)) {
		t.Fatalf("processed %d, want the %d in-flight values", st.Processed, len(inFlight))
	}
	if err := c.SendBatch(0, []uint64{9}); err != ErrStopped {
		t.Fatalf("SendBatch after Stop = %v, want ErrStopped", err)
	}
}

// TestStopUnderLoad cancels the cluster's context while producers keep
// sending, then drains: no sender may block forever, every value SendBatch
// accepted is counted exactly once (Processed + Dropped), and every later
// send returns ErrStopped.
func TestStopUnderLoad(t *testing.T) {
	const k, producers, batch = 4, 8, 16
	tr, err := hh.New(hh.Config{K: k, Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c, err := New(ctx, tr, k, 2)
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int64
	started := make(chan struct{}, producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				xs := GetBatch(batch)
				for v := 0; v < batch; v++ {
					xs = append(xs, uint64(p*batch+v))
				}
				err := c.SendBatch((p+i)%k, xs)
				if err == ErrStopped {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				accepted.Add(batch)
				if i == 8 {
					started <- struct{}{}
				}
			}
		}(p)
	}
	for p := 0; p < producers; p++ {
		<-started
	}
	cancel()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a sender blocked after cancellation")
	}
	c.Drain()
	st := c.Stats()
	if st.Processed+st.Dropped != accepted.Load() {
		t.Fatalf("processed %d + dropped %d = %d, want the %d accepted values",
			st.Processed, st.Dropped, st.Processed+st.Dropped, accepted.Load())
	}
	for j := 0; j < k; j++ {
		if err := c.SendBatch(j, []uint64{1}); err != ErrStopped {
			t.Fatalf("SendBatch(%d) after cancellation and Drain = %v, want ErrStopped", j, err)
		}
	}
}

func TestDrainIdempotentAfterProducers(t *testing.T) {
	tr, _ := hh.New(hh.Config{K: 2, Eps: 0.1})
	c, _ := New(context.Background(), tr, 2, 8)
	for i := 0; i < 100; i++ {
		if err := c.SendBatch(i%2, []uint64{uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain()
	c.Drain() // second drain must not panic (close of closed channel)
	if c.Processed() != 100 {
		t.Fatalf("processed %d", c.Processed())
	}
}
