package allq

import (
	"math"
	"testing"

	"disttrack/internal/oracle"
)

// checkDeltaLaw asserts that every node report carried exactly thrNode, the
// count the coordinator adds for it. A build sets s_u to u's exact count, and
// every later arrival in I_u either still waits in some site's δ_j[u] or was
// reported in a batch of thrNode, so with the exact store s_u + Σ_j δ_j[u] is
// |A ∩ I_u| for every node of the live tree (truth counts A). In either mode
// every δ_j[u] lies in [0, thrNode): a counter rises one arrival at a time
// and reports when it reaches thrNode. truth is nil in sketch mode, whose
// build counts are estimates.
func checkDeltaLaw(tb testing.TB, label string, tr *Tracker, truth *oracle.Counter) {
	tb.Helper()
	p := tr.p
	if tr.Bootstrapping() {
		return
	}
	// exact returns |A ∩ I_u| for truth, a leaf's from truth's ranks at its
	// ends (below is the rank at the next leaf's lo) and an internal node's
	// as its children's sum, checking every node on the way.
	var below int64
	var exact func(u *node) int64
	exact = func(u *node) int64 {
		sum := u.s
		for j, s := range p.sites {
			d := s.delta[u.id]
			if d < 0 || d >= p.thrNode {
				tb.Fatalf("%s: |A|=%d: site %d holds δ = %d for node [%d, %d), outside [0, %d)",
					label, tr.TrueTotal(), j, d, u.lo, u.hi, p.thrNode)
			}
			sum += d
		}
		var want int64
		if u.isLeaf() {
			if truth != nil {
				r := truth.Rank(u.hi)
				if u.hi == math.MaxUint64 { // the last leaf holds math.MaxUint64 too
					r += truth.Count(u.hi)
				}
				want, below = r-below, r
			}
		} else {
			want = exact(u.left) + exact(u.right)
		}
		if truth != nil && sum != want {
			tb.Fatalf("%s: |A|=%d: node [%d, %d): s + Σδ = %d + %d, want |A ∩ I| = %d",
				label, tr.TrueTotal(), u.lo, u.hi, u.s, sum-u.s, want)
		}
		return want
	}
	exact(p.root)
}
