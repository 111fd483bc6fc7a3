package hh

import (
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/core/engine/enginetest"
	"disttrack/internal/oracle"
)

// TestEngineConformance runs the shared engine conformance suite
// (sequential/batch equivalence, concurrent -race stress, meter
// conservation — see package enginetest) over both site stores, with
// state-equality checks plugged in, and after each concurrent run the
// ε-law (checkEpsLaw) and, with exact sites, invariants (2) and (3)
// (checkInvariants).
func TestEngineConformance(t *testing.T) {
	const (
		k   = 4
		eps = 0.05
		phi = 0.1
	)
	for _, tc := range []struct {
		name   string
		sketch bool
	}{
		{"exact", false},
		{"sketch", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := enginetest.Config{
				New: func(tb testing.TB) core.Tracker {
					tr, err := New(Config{K: k, Eps: eps, Sketch: tc.sketch})
					if err != nil {
						tb.Fatal(err)
					}
					return tr
				},
				K:       k,
				PerSite: 10000,
				Query: func(tb testing.TB, tr core.Tracker) {
					_ = tr.(*Tracker).HeavyHitters(phi)
				},
				CheckEquiv: func(t *testing.T, a, b core.Tracker) {
					ta, tb := a.(*Tracker), b.(*Tracker)
					ha, hb := ta.HeavyHitters(phi), tb.HeavyHitters(phi)
					if len(ha) != len(hb) {
						t.Fatalf("heavy hitter sets diverged: %d vs %d", len(ha), len(hb))
					}
					for i := range ha {
						if ha[i] != hb[i] {
							t.Fatalf("heavy hitter %d diverged: %d vs %d", i, ha[i], hb[i])
						}
						if ta.EstFrequency(ha[i]) != tb.EstFrequency(hb[i]) {
							t.Fatalf("EstFrequency(%d) diverged", ha[i])
						}
					}
				},
				CheckFinal: enginetest.Invariant(func(tb testing.TB, label string, ctr core.Tracker, truth *oracle.Counter) {
					tr := ctr.(*Tracker)
					if tr.Rounds() < 2 {
						tb.Fatalf("%s: %d rounds: the ε-law was never checked in the tracking phase", label, tr.Rounds())
					}
					checkEpsLaw(tb, label, tr, truth)
					if tc.sketch {
						return
					}
					// Invariants (2) and (3), at rest, on every key the
					// coordinator counts and every key of count ≥ εm/4:
					// only a key of count ≥ εm/3 can lag by εm/3.
					items := map[uint64]int64{}
					for x := range tr.p.coord.cmx {
						items[x] = truth.Count(x)
					}
					for _, x := range truth.HeavyHitters(eps / 4) {
						items[x] = truth.Count(x)
					}
					checkInvariants(tb, tr, items, tr.TrueTotal(), int(tr.TrueTotal()))
				}),
			}
			enginetest.Run(t, cfg)
		})
	}
}
