// Package integration_test exercises cross-module scenarios: trackers under
// the concurrent runtime, trace record/replay determinism, histogram over a
// live tracker, window trackers over hash-sharded streams, and the harness
// driving everything end to end.
package integration_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"disttrack/internal/core/allq"
	"disttrack/internal/core/hh"
	"disttrack/internal/core/quantile"
	"disttrack/internal/ext/window"
	"disttrack/internal/harness"
	"disttrack/internal/histogram"
	"disttrack/internal/oracle"
	"disttrack/internal/runtime"
	"disttrack/internal/stream"
)

func TestAllQUnderConcurrentRuntime(t *testing.T) {
	const k, eps = 8, 0.05
	tr, err := allq.New(allq.Config{K: k, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	c, err := runtime.New(context.Background(), tr, k, 32)
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.New()
	var omu sync.Mutex
	var wg sync.WaitGroup
	for j := 0; j < k; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			g := stream.Perturb(stream.Uniform(1<<30, 4000, int64(j+100)))
			for {
				x, ok := g.Next()
				if !ok {
					return
				}
				if err := c.SendBatch(j, []uint64{x}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				omu.Lock()
				o.Add(x)
				omu.Unlock()
			}
		}(j)
	}
	wg.Wait()
	c.Drain()
	tr.Quiesce(func() {
		for _, phi := range []float64{0.1, 0.5, 0.9} {
			v := tr.Quantile(phi)
			if e := o.QuantileRankError(v, phi); e > 1.5*eps {
				t.Errorf("phi=%g: rank error %.4f after concurrent ingestion", phi, e)
			}
		}
	})
}

func TestQuantileUnderConcurrentRuntime(t *testing.T) {
	const k = 4
	tr, err := quantile.New(quantile.Config{K: k, Eps: 0.05, Phis: []float64{0.25, 0.75}})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := runtime.New(context.Background(), tr, k, 16)
	o := oracle.New()
	var omu sync.Mutex
	var wg sync.WaitGroup
	for j := 0; j < k; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			g := stream.Perturb(stream.Uniform(1<<30, 6000, int64(j+200)))
			for {
				x, ok := g.Next()
				if !ok {
					return
				}
				if c.SendBatch(j, []uint64{x}) != nil {
					return
				}
				omu.Lock()
				o.Add(x)
				omu.Unlock()
			}
		}(j)
	}
	wg.Wait()
	c.Drain()
	tr.Quiesce(func() {
		for qi, phi := range []float64{0.25, 0.75} {
			if e := o.QuantileRankError(tr.QuantileAt(qi), phi); e > 0.05 {
				t.Errorf("phi=%g: rank error %.4f", phi, e)
			}
		}
	})
}

func harnessHH(k int, eps float64) (*hh.Tracker, error) {
	return hh.New(hh.Config{K: k, Eps: eps})
}

func TestTraceReplayIsByteIdentical(t *testing.T) {
	// Record a run, replay it, and require identical cost and answers.
	evs := stream.Events(stream.Zipf(10000, 20000, 1.3, 301), stream.RandomAssign(8, 302))
	var buf bytes.Buffer
	if err := stream.WriteEvents(&buf, evs); err != nil {
		t.Fatal(err)
	}
	run := func(evs []stream.Event) (int64, []uint64) {
		tr, err := harnessHH(8, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			tr.Feed(ev.Site, ev.Item)
		}
		return tr.Meter().Total().Words, tr.HeavyHitters(0.1)
	}
	w1, hh1 := run(evs)
	back, err := stream.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w2, hh2 := run(back)
	if w1 != w2 {
		t.Fatalf("replay cost %d != original %d", w2, w1)
	}
	if len(hh1) != len(hh2) {
		t.Fatalf("replay answers differ: %v vs %v", hh1, hh2)
	}
	for i := range hh1 {
		if hh1[i] != hh2[i] {
			t.Fatalf("replay answers differ: %v vs %v", hh1, hh2)
		}
	}
}

func TestHistogramTracksLiveDistributionChange(t *testing.T) {
	tr, err := allq.New(allq.Config{K: 4, Eps: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	g := stream.Perturb(stream.Uniform(1000, 30000, 303))
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%4, x)
	}
	h1 := histogram.Build(tr, 8)
	// Shift all mass two orders of magnitude up.
	g = stream.Perturb(&offset{g: stream.Uniform(1000, 90000, 304), off: 1 << 30})
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%4, x)
	}
	h2 := histogram.Build(tr, 8)
	if h2.Buckets[4].Lo <= h1.Buckets[4].Lo {
		t.Fatal("histogram did not follow the distribution shift")
	}
	if h2.MaxSkew() > 0.6 {
		t.Fatalf("post-shift histogram skew %.3f", h2.MaxSkew())
	}
}

type offset struct {
	g   stream.Generator
	off uint64
}

func (o *offset) Next() (uint64, bool) {
	x, ok := o.g.Next()
	return x + o.off, ok
}

func TestWindowOverHashShardedStream(t *testing.T) {
	// Hash sharding sends all occurrences of a value to one site — the
	// realistic ingest pattern; window eviction must still work.
	const k = 8
	tr, err := window.NewHH(window.Config{K: k, Eps: 0.1, Window: 10000})
	if err != nil {
		t.Fatal(err)
	}
	assign := stream.ByHash(k)
	feed := func(hot uint64, n int, seed int64) {
		g := stream.Uniform(100000, int64(n), seed)
		for i := 0; ; i++ {
			x, ok := g.Next()
			if !ok {
				return
			}
			tr.Feed(assign.Site(0, x), x)
			tr.Feed(assign.Site(0, hot), hot)
		}
	}
	feed(11, 8000, 305)
	found := false
	for _, x := range tr.HeavyHitters(0.3) {
		if x == 11 {
			found = true
		}
	}
	if !found {
		t.Fatal("hot item missing from window")
	}
	feed(22, 30000, 306)
	for _, x := range tr.HeavyHitters(0.3) {
		if x == 11 {
			t.Fatal("stale hot item still reported after the window slid")
		}
	}
}

func TestHarnessTraceableSpecReproduces(t *testing.T) {
	s := harness.Spec{Algo: harness.AllQ, N: 15000, Seed: 307, K: 4, Eps: 0.05}
	r1, err := harness.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := harness.Run(s)
	if r1.Words != r2.Words || r1.Msgs != r2.Msgs {
		t.Fatal("harness runs with identical specs must be identical")
	}
}
