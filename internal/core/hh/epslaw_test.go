package hh

import (
	"slices"
	"testing"

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
