package quantile

import (
	"math"
	"testing"

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
