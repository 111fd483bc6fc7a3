package allq

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

// epsLawPhis is the φ grid the law asks Quantile for: 0, 1/32, …, 1.
var epsLawPhis = func() []float64 {
	var phis []float64
	for i := 0; i <= 32; i++ {
		phis = append(phis, float64(i)/32)
	}
	return phis
}()

// checkEpsLaw asserts the §4 contract on the delivered prefix, n = |A|
// items. Rank is off rank(x) by at most ε·n, for every x. With exact sites
// it never overestimates, and while tracking it lags by at most εm, m the
// round's |A| at its start (at most n): the root-to-leaf path's h counts
// each lag by under θm = εm/2h, and a leaf holds under εm/2. With sketch
// sites a node count is a GK estimate, so only the ε·n contract is checked,
// in both directions. While tracking, Rank is constant on each leaf
// [lo, hi) and rank does not decrease, so the law probes each leaf's lo
// (the largest overestimate) and hi − 1 (the largest lag), which covers
// every x. Each Quantile(φ) on epsLawPhis lies within 1.5ε·n of φ·n in
// rank, the package's budget for a leaf's left edge. It returns the largest
// Rank error over ε·n (over εm with exact sites while tracking) and the
// largest Quantile error over ε·n.
func checkEpsLaw(tb testing.TB, label string, tr *Tracker, truth *oracle.Counter) (rankWorst, quantWorst float64) {
	tb.Helper()
	n := tr.TrueTotal()
	if n == 0 {
		return 0, 0
	}
	eps := tr.Eps()
	var probes []uint64
	for _, phi := range epsLawPhis {
		x := tr.Quantile(phi)
		probes = append(probes, x)
		lo := truth.Rank(x)
		hi := lo
		if x < math.MaxUint64 {
			hi += truth.CountRange(x, x+1)
		}
		target := phi * float64(n)
		err := max(0, float64(lo)-target, target-float64(hi)) / float64(n)
		if err > 1.5*eps {
			tb.Fatalf("%s: |A|=%d: Quantile(%g) = %d, rank [%d, %d], target %.1f: off by %.4f·|A|, over 1.5ε = %g",
				label, n, phi, x, lo, hi, target, err, 1.5*eps)
		}
		quantWorst = max(quantWorst, err/eps)
	}
	budget := eps * float64(n)
	exact := !tr.p.cfg.Sketch
	if !tr.Bootstrapping() {
		for _, u := range collectNodes(tr.p.root) {
			if u.isLeaf() {
				probes = append(probes, u.lo, u.hi-1)
			}
		}
		if exact {
			budget = eps * float64(tr.RoundM())
		}
	}
	for _, x := range probes {
		got, want := tr.Rank(x), truth.Rank(x)
		if got > want && exact {
			tb.Fatalf("%s: |A|=%d: Rank(%d) = %d overestimates rank %d", label, n, x, got, want)
		}
		err := math.Abs(float64(want - got))
		if err > budget {
			tb.Fatalf("%s: |A|=%d, m=%d: Rank(%d) = %d, rank %d: off by %.0f, over its budget %.1f",
				label, n, tr.RoundM(), x, got, want, err, budget)
		}
		rankWorst = max(rankWorst, err/budget)
	}
	return rankWorst, quantWorst
}
