package hh

import (
	"slices"
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/core/engine/enginetest"
	"disttrack/internal/oracle"
)

// epsLawStride is how often the ε-contract is checked on the small-batch
// schedules (Feed, B = 1 and B = 16): every epsLawStride-th call, and after
// every membership change and restore. The B = 512 schedules are checked
// after every call.
const epsLawStride = 16

// epsLawPhis returns the φ grid the law checks: ε to 0.3 in steps of ε/2.
func epsLawPhis(eps float64) []float64 {
	var phis []float64
	for i := 0; eps+float64(i)*eps/2 <= 0.3+1e-9; i++ {
		phis = append(phis, eps+float64(i)*eps/2)
	}
	return phis
}

// checkEpsLaw asserts the §2.1 contract on the delivered prefix at every φ
// of the grid: HeavyHitters(φ) holds every key with count ≥ φn and nothing
// with count below (φ−ε)n, where n = |A|. It returns how far below φn the
// lowest reported key fell, in units of εn (the law allows up to 1).
func checkEpsLaw(tb testing.TB, label string, tr *Tracker, truth *oracle.Counter) float64 {
	tb.Helper()
	n := float64(tr.TrueTotal())
	if n == 0 {
		return 0
	}
	eps := tr.Eps()
	heavy := truth.HeavyHitters(eps) // a superset of every φ's heavy set
	worst := 0.0
	for _, phi := range epsLawPhis(eps) {
		got := tr.HeavyHitters(phi)
		for _, x := range got {
			m := float64(truth.Count(x))
			if m < (phi-eps)*n {
				tb.Fatalf("%s: |A|=%g: φ %g reports %d with count %g, under (φ−ε)|A| = %.1f",
					label, n, phi, x, m, (phi-eps)*n)
			}
			worst = max(worst, (phi*n-m)/(eps*n))
		}
		for _, x := range heavy {
			if m := float64(truth.Count(x)); m >= phi*n && !slices.Contains(got, x) {
				tb.Fatalf("%s: |A|=%g: φ %g misses %d with count %g ≥ φ|A| = %.1f",
					label, n, phi, x, m, phi*n)
			}
		}
	}
	return worst
}

// TestEpsLaw runs checkEpsLaw through the engine's law schedules
// (enginetest.RunLaw: Feed and FeedLocalBatch at B ∈ {1, 16, 512}, round
// robin and one-site bursts, a checkpoint restore, a Reconfigure grow and
// shrink, and one goroutine per site under -race), with both site stores.
// On the small-batch schedules it checks every epsLawStride-th call.
func TestEpsLaw(t *testing.T) {
	for _, store := range []struct {
		name   string
		sketch bool
		ends   bool // 0 and math.MaxUint64 in the stream, 1% each
	}{{"exact", false, false}, {"sketch", true, false}, {"exact-ends", false, true}, {"sketch-ends", true, true}} {
		t.Run(store.name, func(t *testing.T) {
			worst := 0.0
			cfg := enginetest.Config{
				New: func(tb testing.TB) core.Tracker {
					tr, err := New(Config{K: 8, Eps: 0.05, Sketch: store.sketch})
					if err != nil {
						tb.Fatal(err)
					}
					return tr
				},
				K:       8,
				PerSite: 4000,
				Ends:    store.ends,
			}
			fed := enginetest.RunLaw(t, cfg, enginetest.Sparse(func(tb testing.TB, label string, tr core.Tracker, truth *oracle.Counter) {
				worst = max(worst, checkEpsLaw(tb, label, tr.(*Tracker), truth))
			}, epsLawStride, "feed", "B1", "B16", "B16-burst"))
			for _, ctr := range fed {
				if tr := ctr.(*Tracker); tr.Rounds() < 3 {
					t.Fatalf("%d rounds: too short a stream", tr.Rounds())
				}
			}
			t.Logf("lowest reported key %.4f·ε|A| under φ|A|", worst)
		})
	}
}
