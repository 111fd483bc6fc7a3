package quantile

import (
	"math"
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/core/engine/enginetest"
	"disttrack/internal/oracle"
)

// epsLawStride is how often the ε-contract is checked on the per-item
// schedules (Feed and B = 1): every epsLawStride-th call, and after every
// membership change and restore. The batched schedules are checked after
// every call.
const epsLawStride = 7

// checkEpsLaw asserts the §3.1 contract on the delivered prefix: every
// tracked M lies within ε·n of its target φ·n in rank, where n = |A|. With
// equal keys, M's rank is the whole run [rank(M), rank(M) + count(M)].
func checkEpsLaw(tb testing.TB, label string, tr *Tracker, truth *oracle.Counter) float64 {
	tb.Helper()
	n := tr.TrueTotal()
	if n == 0 {
		return 0
	}
	worst := 0.0
	for i, phi := range tr.Phis() {
		x := tr.QuantileAt(i)
		lo := truth.Rank(x)
		hi := lo
		if x < math.MaxUint64 {
			hi += truth.CountRange(x, x+1)
		}
		target := phi * float64(n)
		err := max(0, float64(lo)-target, target-float64(hi)) / float64(n)
		if err > tr.Eps() {
			tb.Fatalf("%s: |A|=%d: M for φ %g is %d, rank [%d, %d], target %.1f: off by %.4f·|A|, over ε = %g",
				label, n, phi, x, lo, hi, target, err, tr.Eps())
		}
		worst = max(worst, err/tr.Eps())
	}
	return worst
}

// TestEpsLaw runs checkEpsLaw through the engine's law schedules
// (enginetest.RunLaw: Feed and FeedLocalBatch at B ∈ {1, 16, 512}, round
// robin and one-site bursts, a checkpoint restore, a Reconfigure grow and
// shrink, and one goroutine per site under -race), in both store modes. On
// the per-item schedules it checks every epsLawStride-th call.
func TestEpsLaw(t *testing.T) {
	for _, mode := range []struct {
		name   string
		sketch bool
	}{{"exact", false}, {"sketch", true}} {
		t.Run(mode.name, func(t *testing.T) {
			worst := 0.0
			cfg := enginetest.Config{
				New: func(tb testing.TB) core.Tracker {
					tr, err := New(Config{K: 4, Eps: 0.1, Phis: []float64{0.01, 0.5, 0.99}, Sketch: mode.sketch})
					if err != nil {
						tb.Fatal(err)
					}
					return tr
				},
				K:      4,
				Stream: enginetest.DistinctUniform,
			}
			fed := enginetest.RunLaw(t, cfg, enginetest.Sparse(func(tb testing.TB, label string, tr core.Tracker, truth *oracle.Counter) {
				worst = max(worst, checkEpsLaw(tb, label, tr.(*Tracker), truth))
			}, epsLawStride, "feed", "B1"))
			for _, ctr := range fed {
				if tr := ctr.(*Tracker); tr.Rounds() < 3 {
					t.Fatalf("%d rounds: too short a stream", tr.Rounds())
				}
			}
			t.Logf("largest error %.4f·ε", worst)
		})
	}
}
