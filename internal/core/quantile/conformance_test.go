package quantile

import (
	"slices"
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/core/engine/enginetest"
	"disttrack/internal/oracle"
)

// TestEngineConformance runs the shared engine conformance suite
// (sequential/batch equivalence, concurrent -race stress, meter
// conservation — see package enginetest) over both site-store modes with
// multiple tracked quantiles, plugging in round/relocation state equality
// and the ε-law (checkEpsLaw) after each concurrent run.
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
				K:       k,
				Stream:  enginetest.DistinctUniform,
				PerSite: 10000,
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
