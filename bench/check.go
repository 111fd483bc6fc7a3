package main

import "math"

// verify compares one answer on the flushed state with the exact ground
// truth (internal/oracle over one pass of the block, scaled by the number of
// passes). It reports whether the tenant's ε guarantee is violated and the
// worst error found as a multiple of the allowed ε·n.
func verify(in *input, q querySpec, a answer) (bad bool, errOverEps float64) {
	tp := &in.tenants[q.tenant]
	passes := float64(in.passes)
	n := float64(tp.truth.Len()) * passes
	eps := tp.cfg.Eps
	within := func(err float64) {
		e := err / (eps * n)
		errOverEps = max(errOverEps, e)
		if e > 1 {
			bad = true
		}
	}
	switch q.kind {
	case qHeavy:
		// Every item with true frequency >= phi·n is reported, none below
		// (phi-eps)·n, and every reported count is within eps·n.
		reported := map[uint64]bool{}
		for _, e := range a.entries {
			reported[e.Item] = true
			truth := float64(tp.truth.Count(e.Item)) * passes
			if truth < (q.phi-eps)*n {
				bad = true
			}
			within(math.Abs(truth - float64(e.Count)))
		}
		for _, x := range tp.truth.HeavyHitters(q.phi) {
			if !reported[x] {
				bad = true
			}
		}
	case qFreq:
		within(math.Abs(float64(tp.truth.Count(q.arg))*passes - float64(a.count)))
	case qQuantile:
		// Tie-aware: the most favourable rank among the answer's duplicates.
		within(tp.truth.QuantileRankError(a.value, q.phi) * n)
	case qRank:
		within(math.Abs(float64(tp.truth.Rank(q.arg))*passes - float64(a.rank)))
	}
	return bad, errOverEps
}
