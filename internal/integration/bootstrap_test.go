package integration_test

import (
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/core/allq"
	"disttrack/internal/core/hh"
	"disttrack/internal/core/quantile"
	"disttrack/internal/stream"
)

// TestBootstrapCostsForwarding pins each kind's bootstrap target at the
// many_tenants parameters (k = 4; hh at ε = 0.02, quantile and allq at
// ε = 0.05). hh's and allq's target is the smallest count at which none of
// the kind's per-arrival thresholds is floored at one item; quantile's is
// where a round starts to cost fewer words than forwarding. Until it, a
// sequential feed
// costs exactly one "item" word per arrival and nothing else, and the
// tracker leaves bootstrap on the target-th arrival, not one before.
func TestBootstrapCostsForwarding(t *testing.T) {
	const k = 4
	for _, tc := range []struct {
		name   string
		new    func() (core.Tracker, error)
		target int64
	}{
		// ⌈3k/ε⌉: the reporting threshold ε·S.m/3k reaches one item.
		{"hh", func() (core.Tracker, error) { return hh.New(hh.Config{K: k, Eps: 0.02}) }, 600},
		// ⌈32k/ε⌉: a round costs ~50 k/ε words and covers m arrivals, so
		// below m ≈ 50k/ε forwarding (one word per arrival) is cheaper. The
		// round build's step ε·n_j/16 is 2 here, and the εm/8k batch 4.
		{"quantile", func() (core.Tracker, error) {
			return quantile.New(quantile.Config{K: k, Eps: 0.05, Phis: []float64{0.5, 0.99}})
		}, 2560},
		// ⌈64k/ε⌉: the rebuild step εm/64k reaches one item; the node batch
		// θm/k needs only 2·heightCap(0.05)·k/ε = 34k/ε.
		{"allq", func() (core.Tracker, error) { return allq.New(allq.Config{K: k, Eps: 0.05}) }, 5120},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := tc.new()
			if err != nil {
				t.Fatal(err)
			}
			g := stream.Perturb(stream.Zipf(1<<20, tc.target, 1.2, 7))
			for n := int64(1); n <= tc.target; n++ {
				if !tr.Bootstrapping() {
					t.Fatalf("left bootstrap after %d arrivals, want %d", n-1, tc.target)
				}
				x, _ := g.Next()
				tr.Feed(int(n%k), x)
				// The target-th arrival's escalation also runs the handoff.
				if m := tr.Meter(); n < tc.target && (m.Total().Words != n || m.Kind("item").Words != n) {
					t.Fatalf("after %d arrivals: %d words, %d of them \"item\"; want %d, all \"item\"",
						n, m.Total().Words, m.Kind("item").Words, n)
				}
			}
			if tr.Bootstrapping() {
				t.Fatalf("still bootstrapping after %d arrivals", tc.target)
			}
			if got := tr.Meter().Kind("item").Words; got != tc.target {
				t.Fatalf("%d \"item\" words for %d arrivals", got, tc.target)
			}
		})
	}
}
