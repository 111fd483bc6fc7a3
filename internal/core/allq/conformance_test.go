package allq

import (
	"math"
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/core/engine/enginetest"
	"disttrack/internal/oracle"
)

// TestEngineConformance runs the shared engine conformance suite
// (sequential/batch equivalence, concurrent -race stress, meter
// conservation — see package enginetest) over both site-store modes,
// plugging in tree-state equality and the ε-law (checkEpsLaw) after each
// concurrent run.
func TestEngineConformance(t *testing.T) {
	const (
		k   = 4
		eps = 0.08
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
				Stream:  enginetest.DistinctUniform,
				PerSite: 8000,
				Query: func(tb testing.TB, tr core.Tracker) {
					if tr.TrueTotal() > 0 {
						aq := tr.(*Tracker)
						_ = aq.Quantile(0.5)
						_ = aq.Rank(1 << 40)
					}
				},
				CheckEquiv: func(t *testing.T, a, b core.Tracker) {
					ta, tb := a.(*Tracker), b.(*Tracker)
					if ta.Rebuilds() != tb.Rebuilds() || ta.LeafSplits() != tb.LeafSplits() {
						t.Fatalf("tree maintenance diverged: rebuilds %d/%d leafSplits %d/%d",
							ta.Rebuilds(), tb.Rebuilds(), ta.LeafSplits(), tb.LeafSplits())
					}
					if sa, sb := ta.TreeStats(), tb.TreeStats(); sa != sb {
						t.Fatalf("tree stats diverged: %+v vs %+v", sa, sb)
					}
					for probe := uint64(0); probe < 64; probe++ {
						x := probe * (math.MaxUint64 / 64)
						if ra, rb := ta.Rank(x), tb.Rank(x); ra != rb {
							t.Fatalf("Rank(%d) diverged: %d vs %d", x, ra, rb)
						}
					}
					for _, phi := range []float64{0.1, 0.5, 0.9} {
						if qa, qb := ta.Quantile(phi), tb.Quantile(phi); qa != qb {
							t.Fatalf("Quantile(%g) diverged: %d vs %d", phi, qa, qb)
						}
					}
				},
				CheckFinal: enginetest.Invariant(func(tb testing.TB, label string, tr core.Tracker, truth *oracle.Counter) {
					if tr.Rounds() < 2 {
						tb.Fatalf("%s: %d rounds: the ε-law was never checked in the tracking phase", label, tr.Rounds())
					}
					checkEpsLaw(tb, label, tr.(*Tracker), truth)
				}),
			}
			enginetest.Run(t, cfg)
		})
	}
}
