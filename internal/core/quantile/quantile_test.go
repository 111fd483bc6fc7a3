package quantile

import (
	"testing"

	"disttrack/internal/oracle"
	"disttrack/internal/stream"
)

// runAndCheck drives a tracker and oracle over a (perturbed) stream,
// asserting the continuous guarantee |rank(M) − φ|A|| ≤ ε|A| at sampled
// prefixes. It returns the tracker for further inspection.
func runAndCheck(t *testing.T, cfg Config, gen stream.Generator, assign stream.Assigner, slack float64) *Tracker {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.New()
	for i := 0; ; i++ {
		x, ok := gen.Next()
		if !ok {
			break
		}
		tr.Feed(assign.Site(i, x), x)
		o.Add(x)
		if i%89 == 0 || i < 30 {
			m := tr.Quantile()
			if errFrac := o.QuantileRankError(m, cfg.Phi); errFrac > cfg.Eps*slack {
				t.Fatalf("step %d (|A|=%d): quantile %d has rank error %.5f > eps %g (phi=%g)",
					i, o.Len(), m, errFrac, cfg.Eps, cfg.Phi)
			}
		}
	}
	m := tr.Quantile()
	if errFrac := o.QuantileRankError(m, cfg.Phi); errFrac > cfg.Eps*slack {
		t.Fatalf("final: quantile %d has rank error %.5f > eps %g", m, errFrac, cfg.Eps)
	}
	return tr
}

func distinctUniform(n int64, seed int64) stream.Generator {
	return stream.Perturb(stream.Uniform(1<<30, n, seed))
}

func TestMedianUniformExact(t *testing.T) {
	runAndCheck(t, Config{K: 8, Eps: 0.05, Phi: 0.5},
		distinctUniform(40000, 1), stream.RoundRobin(8), 1)
}

func TestMedianUniformSketch(t *testing.T) {
	runAndCheck(t, Config{K: 8, Eps: 0.05, Phi: 0.5, Mode: ModeSketch},
		distinctUniform(40000, 2), stream.RoundRobin(8), 1)
}

func TestTailQuantiles(t *testing.T) {
	for _, phi := range []float64{0, 0.01, 0.1, 0.9, 0.99, 1} {
		runAndCheck(t, Config{K: 4, Eps: 0.05, Phi: phi},
			distinctUniform(25000, int64(phi*100)+3), stream.RoundRobin(4), 1)
	}
}

func TestSkewedValuesZipf(t *testing.T) {
	// Heavily duplicated values, perturbed to distinctness — the perturbed
	// key space is extremely non-uniform.
	runAndCheck(t, Config{K: 8, Eps: 0.05, Phi: 0.5},
		stream.Perturb(stream.Zipf(1000, 40000, 1.2, 5)), stream.RoundRobin(8), 1)
}

func TestSortedArrivals(t *testing.T) {
	// Monotone arrivals constantly push the quantile rightward — maximal
	// drift pressure on the relocation machinery.
	runAndCheck(t, Config{K: 4, Eps: 0.05, Phi: 0.5},
		stream.Sequential(30000), stream.RoundRobin(4), 1)
}

func TestReverseSortedArrivals(t *testing.T) {
	runAndCheck(t, Config{K: 4, Eps: 0.05, Phi: 0.5},
		reverseSorted(30000), stream.RoundRobin(4), 1)
}

func TestSingleSitePlacement(t *testing.T) {
	runAndCheck(t, Config{K: 8, Eps: 0.06, Phi: 0.5},
		distinctUniform(30000, 7), stream.SingleSite(5), 1)
}

func TestWeightedPlacement(t *testing.T) {
	runAndCheck(t, Config{K: 4, Eps: 0.05, Phi: 0.25},
		distinctUniform(30000, 9), stream.WeightedAssign([]float64{8, 1, 1, 1}, 11), 1)
}

func TestDistributionShift(t *testing.T) {
	// The value distribution jumps between disjoint ranges mid-stream, so
	// the true median teleports — rounds and relocations must chase it. The
	// offset keeps values below 2^40: perturbation shifts them left 24 bits,
	// and a larger one would wrap back onto the low range.
	lowRange := stream.Uniform(1<<20, 15000, 13)
	highRange := stream.Uniform(1<<20, 30000, 17)
	shifted := &offsetGen{g: highRange, off: 1 << 36}
	runAndCheck(t, Config{K: 8, Eps: 0.05, Phi: 0.5},
		stream.Perturb(stream.Concat(lowRange, shifted)), stream.RoundRobin(8), 1)
}

type offsetGen struct {
	g   stream.Generator
	off uint64
}

func (o *offsetGen) Next() (uint64, bool) {
	x, ok := o.g.Next()
	return x + o.off, ok
}

func TestBootstrapExact(t *testing.T) {
	cfg := Config{K: 4, Eps: 0.1, Phi: 0.5} // bootstrap target 40
	tr, _ := New(cfg)
	o := oracle.New()
	g := distinctUniform(30, 19)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%4, x)
		o.Add(x)
		if got, want := tr.Quantile(), o.Quantile(0.5); got != want {
			t.Fatalf("bootstrap quantile %d != exact %d at step %d", got, want, i)
		}
	}
}

func TestIntervalInvariants(t *testing.T) {
	cfg := Config{K: 8, Eps: 0.05, Phi: 0.5}
	tr, _ := New(cfg)
	g := distinctUniform(60000, 23)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%8, x)
		if i%1000 != 999 || tr.RoundM() == 0 {
			continue
		}
		// Invariant: every interval's true count ≤ εm/2 (+ one site batch of
		// slack for the arrival that is about to trigger the report).
		em := cfg.Eps * float64(tr.RoundM())
		for iv, c := range tr.IntervalTrueCounts() {
			if float64(c) > em/2+em/8 {
				t.Fatalf("step %d: interval %d holds %d items > εm/2 = %.1f (m=%d)",
					i, iv, c, em/2, tr.RoundM())
			}
		}
	}
	if tr.CannotSplit() != 0 {
		t.Fatalf("unexpected cannot-split events: %d", tr.CannotSplit())
	}
}

func TestCostBoundAndLogGrowth(t *testing.T) {
	const k, eps = 8, 0.05
	run := func(n int64) int64 {
		tr, _ := New(Config{K: k, Eps: eps, Phi: 0.5})
		g := distinctUniform(n, 29)
		for i := 0; ; i++ {
			x, ok := g.Next()
			if !ok {
				break
			}
			tr.Feed(i%k, x)
		}
		return tr.Meter().Total().Words
	}
	w16 := run(1 << 16)
	w18 := run(1 << 18)
	w20 := run(1 << 20)
	// Per-round cost is O(k/ε); rounds are O(log n): absolute sanity bound
	// with a generous constant.
	bound := 60.0 * float64(k) / eps * 20
	if float64(w20) > bound {
		t.Fatalf("cost %d words beyond O(k/ε log n) scale %f", w20, bound)
	}
	d1, d2 := w18-w16, w20-w18
	if d1 <= 0 || d2 <= 0 {
		t.Fatalf("cost not increasing: %d %d %d", w16, w18, w20)
	}
	if r := float64(d2) / float64(d1); r > 2.5 || r < 0.4 {
		t.Fatalf("cost growth per 4x n should be ~constant: deltas %d, %d (ratio %.2f)", d1, d2, r)
	}
}

func TestRoundsRelocationsSplitsScale(t *testing.T) {
	const k, eps = 4, 0.05
	tr, _ := New(Config{K: k, Eps: eps, Phi: 0.5})
	g := distinctUniform(1<<18, 31)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%k, x)
	}
	// Rounds ≈ log2(n·ε/k) ≈ 11–12.
	if r := tr.Rounds(); r < 5 || r > 25 {
		t.Fatalf("rounds=%d, want Θ(log n)≈12", r)
	}
	// Splits and relocations are O(1/ε) per round.
	maxPerRound := int(8/eps) + 2
	if s := tr.Splits(); s > tr.Rounds()*maxPerRound {
		t.Fatalf("splits=%d beyond O(rounds/ε)=%d", s, tr.Rounds()*maxPerRound)
	}
	if r := tr.Relocations(); r > tr.Rounds()*maxPerRound {
		t.Fatalf("relocations=%d beyond O(rounds/ε)=%d", r, tr.Rounds()*maxPerRound)
	}
}

func TestSketchModeSpace(t *testing.T) {
	const k, eps = 4, 0.05
	trS, _ := New(Config{K: k, Eps: eps, Phi: 0.5, Mode: ModeSketch})
	trE, _ := New(Config{K: k, Eps: eps, Phi: 0.5, Mode: ModeExact})
	g1 := distinctUniform(60000, 37)
	g2 := distinctUniform(60000, 37)
	for i := 0; ; i++ {
		x, ok := g1.Next()
		if !ok {
			break
		}
		y, _ := g2.Next()
		trS.Feed(i%k, x)
		trE.Feed(i%k, y)
	}
	for j := 0; j < k; j++ {
		if s, e := trS.SiteSpace(j), trE.SiteSpace(j); s >= e/2 {
			t.Fatalf("site %d: sketch space %d not clearly below exact space %d", j, s, e)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, uint64) {
		tr, _ := New(Config{K: 4, Eps: 0.05, Phi: 0.5})
		g := distinctUniform(20000, 41)
		for i := 0; ; i++ {
			x, ok := g.Next()
			if !ok {
				break
			}
			tr.Feed(i%4, x)
		}
		return tr.Meter().Total().Words, tr.Quantile()
	}
	w1, q1 := run()
	w2, q2 := run()
	if w1 != w2 || q1 != q2 {
		t.Fatalf("identical runs diverged: (%d,%d) vs (%d,%d)", w1, q1, w2, q2)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{K: 0, Eps: 0.1, Phi: 0.5},
		{K: 2, Eps: 0, Phi: 0.5},
		{K: 2, Eps: 1, Phi: 0.5},
		{K: 2, Eps: 0.1, Phi: -0.1},
		{K: 2, Eps: 0.1, Phi: 1.1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
}

func TestPanics(t *testing.T) {
	tr, _ := New(Config{K: 2, Eps: 0.1, Phi: 0.5})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Quantile before arrivals should panic")
			}
		}()
		tr.Quantile()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Feed with bad site should panic")
			}
		}()
		tr.Feed(5, 1)
	}()
}
