package quantile

import (
	"fmt"
	"math"
	"testing"

	"disttrack/internal/stream"
)

// TestRoundBuildLaw checks the round build's derivation (docs/architecture.md,
// "Quantile round builds sample at ε·n_j/16") right after every round build.
// Site j's separators close every step_j = ⌈ε·n_j/16⌉ of its items, so a
// value's sampled weight trails its exact rank by a residue of at most
// step_j − 1 per site, and zero at the site whose separator it is. A cut's
// weight passes cutsEvery's target T = ⌊3εm/16⌋ by under its own site's step.
// So a fresh interval holds at most T + Σ_j step_j − k ≤ 3εm/16 + εm/16 items,
// and every interval but the last (the remainder) at least
// T − Σ_j (step_j − 1) − 1 ≥ εm/8 − 2; the first interval starts at zero,
// not at a cut item, and so has one item less. Both bounds are checked per
// build and as the closed form [εm/8 − 2, εm/4 + 1]; at the divisor 8 the
// closed form fails on uniform and Zipf streams. Every coordinator count
// ivCount equals the exact count. The one-site assignment puts all m items
// under one step, the largest a build can take. The extreme count/(εm) seen
// is logged; docs/perf.md lists it for the divisors 32, 16 and 8.
func TestRoundBuildLaw(t *testing.T) {
	streams := []struct {
		name string
		gen  func(n int64) stream.Generator
	}{
		{"uniform", func(n int64) stream.Generator { return distinctUniform(n, 51) }},
		{"zipf", func(n int64) stream.Generator { return stream.Perturb(stream.Zipf(1<<20, n, 1.3, 52)) }},
		{"sorted", stream.Sequential},
	}
	assigns := []struct {
		name   string
		assign func(k int) stream.Assigner
	}{
		{"round-robin", stream.RoundRobin},
		{"one-site", func(int) stream.Assigner { return stream.SingleSite(0) }},
	}
	lo, hi := math.Inf(1), 0.0
	for _, s := range streams {
		for _, a := range assigns {
			for _, eps := range []float64{0.2, 0.05, 1.0 / 64} {
				for _, k := range []int{1, 8, 32} {
					if k == 1 && a.name == "one-site" {
						continue // the same run as round-robin
					}
					cfg := Config{K: k, Eps: eps, Phis: sweepPhis}
					name := fmt.Sprintf("%s/%s/eps=%.4g/k=%d", s.name, a.name, eps, k)
					t.Run(name, func(t *testing.T) {
						// Nine targets: the handoff build and three doublings.
						n := 9 * (&policy{cfg: cfg}).bootTarget()
						l, h := roundBuildLaw(t, cfg, s.gen(n), a.assign(k))
						lo, hi = min(lo, l), max(hi, h)
					})
				}
			}
		}
	}
	t.Logf("fresh intervals (all but the last) hold [%.4f, %.4f]·εm; splitAt is 0.375·εm", lo, hi)
}

// roundBuildLaw feeds gen one arrival at a time, checks the law after every
// round build and returns the smallest (last interval excluded) and largest
// count/(εm) seen.
func roundBuildLaw(t *testing.T, cfg Config, gen stream.Generator, assign stream.Assigner) (lo, hi float64) {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := tr.p
	lo = math.Inf(1)
	rounds := 0
	for i := 0; ; i++ {
		x, ok := gen.Next()
		if !ok {
			break
		}
		tr.Feed(assign.Site(i, x), x)
		if tr.Rounds() == rounds {
			continue
		}
		rounds = tr.Rounds()
		em := cfg.Eps * float64(p.m)
		target := int64(3 * em / 16)
		var steps int64
		for _, s := range p.sites {
			n := s.st.CountRange(0, math.MaxUint64)
			steps += max(1, int64(math.Ceil(float64(n)/(roundSampleDiv/cfg.Eps))))
		}
		k := int64(cfg.K)
		counts := tr.IntervalTrueCounts()
		for iv, c := range counts {
			if p.ivCount[iv] != c {
				t.Fatalf("round %d: interval %d: ivCount %d, exact %d", rounds, iv, p.ivCount[iv], c)
			}
			last := iv == len(counts)-1
			if c > target+steps-k || (!last && c < target-(steps-k)-1) {
				t.Fatalf("round %d (m %d): interval %d of %d holds %d items, outside [T − Σ(step_j − 1) − 1, T + Σ step_j − k] = [%d, %d]",
					rounds, p.m, iv, len(counts), c, target-(steps-k)-1, target+steps-k)
			}
			if float64(c) > em/4+1 || (!last && float64(c) < em/8-2) {
				t.Fatalf("round %d (m %d): interval %d of %d holds %d items, outside [εm/8 − 2, εm/4 + 1] = [%.1f, %.1f]",
					rounds, p.m, iv, len(counts), c, em/8-2, em/4+1)
			}
			hi = max(hi, float64(c)/em)
			if !last {
				lo = min(lo, float64(c)/em)
			}
		}
	}
	if rounds < 4 {
		t.Fatalf("%d round builds, want the handoff and three doublings", rounds)
	}
	return lo, hi
}
