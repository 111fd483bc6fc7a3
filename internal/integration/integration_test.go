// Package integration_test exercises cross-module scenarios: trackers under
// the concurrent runtime, and the harness driving a tracker end to end.
package integration_test

import (
	"context"
	"sync"
	"testing"

	"disttrack/internal/core/allq"
	"disttrack/internal/core/quantile"
	"disttrack/internal/harness"
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
