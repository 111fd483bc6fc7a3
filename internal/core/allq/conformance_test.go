package allq

import (
	"math"
	"slices"
	"sort"
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/core/engine/enginetest"
)

// TestEngineConformance runs the shared engine conformance suite
// (sequential/batch equivalence, concurrent -race stress, meter
// conservation — see package enginetest) over both site-store modes,
// plugging in the §4 rank-error contract and tree-state equality.
func TestEngineConformance(t *testing.T) {
	const (
		k   = 4
		eps = 0.08
	)
	for _, tc := range []struct {
		name string
		mode Mode
	}{
		{"exact", ModeExact},
		{"sketch", ModeSketch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := enginetest.Config{
				New: func(tb testing.TB) core.Tracker {
					tr, err := New(Config{K: k, Eps: eps, Mode: tc.mode})
					if err != nil {
						tb.Fatal(err)
					}
					return tr
				},
				K:        k,
				Distinct: true,
				PerSite:  8000,
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
			}
			if tc.mode == ModeExact {
				// The sketch mode's accuracy contract is covered by the
				// sequential tests; under concurrency it pins conservation
				// and underestimation only (the suite's built-in checks).
				cfg.CheckFinal = checkRankContract
			}
			enginetest.Run(t, cfg)
		})
	}
}

// checkRankContract asserts the §4 guarantees — Rank underestimates true
// rank by at most ε|A|, and extracted quantiles land within the leaf-load
// slack — with 4k extra words for concurrent boot-straddle arrivals.
func checkRankContract(t *testing.T, label string, ctr core.Tracker, streams [][]uint64) {
	t.Helper()
	tr := ctr.(*Tracker)
	if tr.Rounds() < 2 {
		t.Fatalf("%s: %d rounds: the contract was never checked in the tracking phase", label, tr.Rounds())
	}
	k := len(streams)
	eps := tr.Eps()
	var sorted []uint64
	for _, xs := range streams {
		sorted = append(sorted, xs...)
	}
	slices.Sort(sorted)
	n := int64(len(sorted))
	trueRank := func(x uint64) int64 {
		return int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] >= x }))
	}
	bound := eps*float64(n) + float64(4*k)
	for i := 0; i < len(sorted); i += len(sorted) / 64 {
		x := sorted[i]
		r, tru := tr.Rank(x), trueRank(x)
		if r > tru {
			t.Fatalf("%s: Rank(%d) = %d overestimates true %d", label, x, r, tru)
		}
		if float64(tru-r) > bound {
			t.Errorf("%s: Rank(%d) = %d, error %d exceeds %g", label, x, r, tru-r, bound)
		}
	}
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		v := tr.Quantile(phi)
		// Leaf-edge extraction adds up to a leaf load (εm/2) of slack.
		if diff := float64(trueRank(v)) - phi*float64(n); diff > 1.5*eps*float64(n)+float64(4*k) ||
			diff < -1.5*eps*float64(n)-float64(4*k) {
			t.Errorf("%s: Quantile(%g) rank off by %g", label, phi, diff)
		}
	}
}
