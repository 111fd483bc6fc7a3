package quantile

import (
	"slices"
	"sort"
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/core/engine/enginetest"
)

// TestEngineConformance runs the shared engine conformance suite
// (sequential/batch equivalence, concurrent -race stress, meter
// conservation — see package enginetest) over both site-store modes with
// multiple tracked quantiles, plugging in the §3.1 rank-drift contract and
// round/relocation state equality.
func TestEngineConformance(t *testing.T) {
	const (
		k   = 4
		eps = 0.05
	)
	phis := []float64{0.25, 0.5, 0.9}
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
					tr, err := New(Config{K: k, Eps: eps, Phis: phis, Sketch: tc.sketch})
					if err != nil {
						tb.Fatal(err)
					}
					return tr
				},
				K:        k,
				Distinct: true,
				PerSite:  10000,
				Query: func(tb testing.TB, tr core.Tracker) {
					if tr.TrueTotal() > 0 {
						_ = tr.(*Tracker).Quantile()
					}
				},
				CheckEquiv: func(t *testing.T, a, b core.Tracker) {
					ta, tb := a.(*Tracker), b.(*Tracker)
					if !slices.Equal(ta.Quantiles(), tb.Quantiles()) {
						t.Fatalf("tracked quantiles diverged: %v vs %v", ta.Quantiles(), tb.Quantiles())
					}
					if ta.Relocations() != tb.Relocations() || ta.Splits() != tb.Splits() ||
						ta.Intervals() != tb.Intervals() {
						t.Fatalf("round state diverged: reloc %d/%d splits %d/%d ivs %d/%d",
							ta.Relocations(), tb.Relocations(), ta.Splits(), tb.Splits(),
							ta.Intervals(), tb.Intervals())
					}
				},
			}
			if !tc.sketch {
				// The sketch mode's accuracy contract is covered by the
				// sequential tests; under concurrency it pins conservation
				// and underestimation only (the suite's built-in checks).
				cfg.CheckFinal = checkQuantContract
			}
			enginetest.Run(t, cfg)
		})
	}
}

// checkQuantContract asserts every tracked M is within ε|A| of its target
// rank (slack 4k for concurrent boot-straddle arrivals).
func checkQuantContract(t *testing.T, label string, ctr core.Tracker, streams [][]uint64) {
	t.Helper()
	tr := ctr.(*Tracker)
	if tr.Rounds() < 2 {
		t.Fatalf("%s: %d rounds: the contract was never checked in the tracking phase", label, tr.Rounds())
	}
	k := len(streams)
	var sorted []uint64
	for _, xs := range streams {
		sorted = append(sorted, xs...)
	}
	slices.Sort(sorted)
	n := float64(len(sorted))
	bound := tr.Eps()*n + float64(4*k)
	for i, phi := range tr.Phis() {
		m := tr.QuantileAt(i)
		r := float64(int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] >= m })))
		if diff := r - phi*n; diff > bound || diff < -bound {
			t.Errorf("%s: phi=%g rank(M)=%g target %g, off by %g > %g",
				label, phi, r, phi*n, diff, bound)
		}
	}
}
