package allq

import (
	"math"
	"math/rand"
	"testing"

	"disttrack/internal/oracle"
	"disttrack/internal/stream"
)

func distinctUniform(n int64, seed int64) stream.Generator {
	return stream.Perturb(stream.Uniform(1<<30, n, seed))
}

// runAndCheckRanks drives tracker and oracle, asserting at sampled prefixes
// that Rank(x) is within ε|A| of the truth for random probes — the §4
// contract "extract the rank of any x with additive error at most ε|A|".
func runAndCheckRanks(t *testing.T, cfg Config, gen stream.Generator, assign stream.Assigner) {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedAndCheckRanks(t, tr, oracle.New(), gen, assign)
}

// feedAndCheckRanks continues tr (whose arrivals so far o holds) with gen,
// checking the rank contract at sampled prefixes.
func feedAndCheckRanks(t *testing.T, tr *Tracker, o *oracle.Oracle, gen stream.Generator, assign stream.Assigner) {
	t.Helper()
	rng := rand.New(rand.NewSource(999))
	probes := make([]uint64, 8)
	for i := 0; ; i++ {
		x, ok := gen.Next()
		if !ok {
			break
		}
		tr.Feed(assign.Site(i, x), x)
		o.Add(x)
		if i%251 != 0 && i >= 50 {
			continue
		}
		for j := range probes {
			probes[j] = rng.Uint64() % (1 << (30 + stream.PerturbBits))
		}
		checkRanks(t, tr, o, probes)
	}
}

// checkRanks asserts the rank contract at each probe: Rank never
// overestimates and lags the truth by at most ε|A| (+1 for rounding).
func checkRanks(t *testing.T, tr *Tracker, o *oracle.Oracle, probes []uint64) {
	t.Helper()
	bound := tr.Eps() * float64(o.Len())
	for _, q := range probes {
		got, want := tr.Rank(q), o.Rank(q)
		if got > want {
			t.Fatalf("|A|=%d: Rank(%d)=%d overestimates true %d", o.Len(), q, got, want)
		}
		if float64(want-got) > bound+1 {
			t.Fatalf("|A|=%d: Rank(%d)=%d lags true %d beyond ε|A|=%.1f",
				o.Len(), q, got, want, bound)
		}
	}
}

func TestRankContractUniformExact(t *testing.T) {
	runAndCheckRanks(t, Config{K: 8, Eps: 0.05},
		distinctUniform(40000, 1), stream.RoundRobin(8))
}

func TestRankContractUniformSketch(t *testing.T) {
	runAndCheckRanks(t, Config{K: 8, Eps: 0.05, Mode: ModeSketch},
		distinctUniform(40000, 2), stream.RoundRobin(8))
}

func TestRankContractZipfValues(t *testing.T) {
	runAndCheckRanks(t, Config{K: 4, Eps: 0.05},
		stream.Perturb(stream.Zipf(1000, 30000, 1.2, 3)), stream.RoundRobin(4))
}

func TestRankContractSortedArrivals(t *testing.T) {
	runAndCheckRanks(t, Config{K: 4, Eps: 0.06},
		stream.Sequential(30000), stream.RoundRobin(4))
}

func TestRankContractSingleSite(t *testing.T) {
	runAndCheckRanks(t, Config{K: 8, Eps: 0.06},
		distinctUniform(25000, 5), stream.SingleSite(2))
}

func TestRankContractDistributionShift(t *testing.T) {
	// Mass jumps to a disjoint value range mid-stream: splitting elements
	// must chase it via condition-(6) rebuilds.
	low := stream.Uniform(1<<20, 12000, 7)
	high := &offsetGen{g: stream.Uniform(1<<20, 25000, 8), off: 1 << 36}
	runAndCheckRanks(t, Config{K: 8, Eps: 0.05},
		stream.Perturb(stream.Concat(low, high)), stream.RoundRobin(8))
}

type offsetGen struct {
	g   stream.Generator
	off uint64
}

func (o *offsetGen) Next() (uint64, bool) {
	x, ok := o.g.Next()
	return x + o.off, ok
}

func TestAllQuantilesSimultaneously(t *testing.T) {
	cfg := Config{K: 8, Eps: 0.05}
	tr, _ := New(cfg)
	o := oracle.New()
	g := distinctUniform(40000, 9)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%8, x)
		o.Add(x)
		if i%997 != 0 || i < 1000 {
			continue
		}
		for _, phi := range []float64{0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1} {
			v := tr.Quantile(phi)
			// Leaf-edge extraction adds up to a leaf load of slack: 1.5ε total.
			if e := o.QuantileRankError(v, phi); e > 1.5*cfg.Eps {
				t.Fatalf("step %d phi=%g: quantile %d has rank error %.4f > 1.5ε",
					i, phi, v, e)
			}
		}
	}
}

func TestTreeInvariants(t *testing.T) {
	cfg := Config{K: 8, Eps: 0.05}
	tr, _ := New(cfg)
	g := distinctUniform(60000, 11)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%8, x)
		if i%2000 != 1999 || tr.RoundM() == 0 {
			continue
		}
		st := tr.TreeStats()
		if st.Height > st.HeightCap {
			t.Fatalf("step %d: height %d exceeds cap %d", i, st.Height, st.HeightCap)
		}
		// Θ(1/ε) leaves.
		if st.Leaves > int(8/cfg.Eps)+2 {
			t.Fatalf("step %d: %d leaves, beyond Θ(1/ε)", i, st.Leaves)
		}
		if st.Nodes != 2*st.Leaves-1 {
			t.Fatalf("step %d: %d nodes for %d leaves — tree malformed", i, st.Nodes, st.Leaves)
		}
		// Condition (6) holds for every edge (it is restored eagerly).
		var walk func(u *node) bool
		walk = func(u *node) bool {
			if u.isLeaf() {
				return true
			}
			if violated(u, u.left) || violated(u, u.right) {
				return false
			}
			return walk(u.left) && walk(u.right)
		}
		if !walk(tr.p.root) {
			t.Fatalf("step %d: condition (6) violated somewhere in the tree", i)
		}
	}
	if tr.CannotSplit() != 0 {
		t.Fatalf("unexpected cannot-split events: %d", tr.CannotSplit())
	}
}

func TestLeafLoadInvariant(t *testing.T) {
	cfg := Config{K: 4, Eps: 0.08}
	tr, _ := New(cfg)
	g := distinctUniform(50000, 13)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%4, x)
		if i%3000 != 2999 || tr.RoundM() == 0 {
			continue
		}
		// True leaf loads ≤ εm/2 (+ reporting slack θm + one site batch).
		em := cfg.Eps * float64(tr.RoundM())
		slack := em/2 + 2*tr.p.theta*float64(tr.RoundM()) + float64(tr.p.thrNode)
		for _, u := range collectNodes(tr.p.root) {
			if !u.isLeaf() {
				continue
			}
			var trueCount int64
			for _, s := range tr.p.sites {
				trueCount += s.st.CountRange(u.lo, u.hi)
			}
			if float64(trueCount) > slack+1 {
				t.Fatalf("step %d: leaf [%d,%d) holds %d items > εm/2+slack=%.1f (m=%d)",
					i, u.lo, u.hi, trueCount, slack, tr.RoundM())
			}
		}
	}
}

func TestNodeCountErrorInvariant(t *testing.T) {
	// Figure 1's per-node guarantee: s_u underestimates |A ∩ I_u| by at
	// most θm (+ the in-flight site batches).
	cfg := Config{K: 4, Eps: 0.1}
	tr, _ := New(cfg)
	g := distinctUniform(30000, 17)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%4, x)
		if i%2500 != 2499 || tr.RoundM() == 0 {
			continue
		}
		thetaM := tr.p.theta * float64(tr.RoundM())
		for _, u := range collectNodes(tr.p.root) {
			var trueCount int64
			for _, s := range tr.p.sites {
				trueCount += s.st.CountRange(u.lo, u.hi)
			}
			if u.s > trueCount {
				t.Fatalf("step %d: node %d s=%d above true %d", i, u.id, u.s, trueCount)
			}
			if float64(trueCount-u.s) > thetaM+float64(tr.p.cfg.K) {
				t.Fatalf("step %d: node %d s=%d lags true %d beyond θm=%.1f",
					i, u.id, u.s, trueCount, thetaM)
			}
		}
	}
}

func TestCostBoundAndGrowth(t *testing.T) {
	const k, eps = 4, 0.1
	run := func(n int64) int64 {
		tr, _ := New(Config{K: k, Eps: eps})
		g := distinctUniform(n, 19)
		for i := 0; ; i++ {
			x, ok := g.Next()
			if !ok {
				break
			}
			tr.Feed(i%k, x)
		}
		return tr.Meter().Total().Words
	}
	w15 := run(1 << 15)
	w17 := run(1 << 17)
	w19 := run(1 << 19)
	// O(k/ε·log²(1/ε)·log n): growth per 4x n is ~constant.
	d1, d2 := w17-w15, w19-w17
	if d1 <= 0 || d2 <= 0 {
		t.Fatalf("cost not increasing: %d %d %d", w15, w17, w19)
	}
	if r := float64(d2) / float64(d1); r > 2.5 || r < 0.4 {
		t.Fatalf("cost growth per 4x n should be ~constant: %d then %d (ratio %.2f)", d1, d2, r)
	}
	// Absolute scale: C · k/ε · h² · log n with h = heightCap(eps).
	h := float64(heightCap(eps))
	bound := 20 * float64(k) / eps * h * h * 19
	if float64(w19) > bound {
		t.Fatalf("cost %d beyond O(k/ε·log²(1/ε)·log n) scale %.0f", w19, bound)
	}
}

func TestHeavyHittersFromRanks(t *testing.T) {
	// §1: an all-quantile structure yields (2ε)-approximate heavy hitters.
	const eps, phi = 0.02, 0.1
	tr, _ := New(Config{K: 8, Eps: eps})
	o := oracle.New()
	g := stream.Perturb(stream.Zipf(10000, 50000, 1.4, 21))
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%8, x)
		o.Add(x)
	}
	reported := map[uint64]bool{}
	for _, v := range tr.HeavyHittersFromRanks(phi, stream.PerturbBits) {
		reported[v] = true
		// Frequency of value v = count of its perturbed key range.
		freq := o.Rank(stream.PerturbValue(v+1)) - o.Rank(stream.PerturbValue(v))
		if float64(freq) < (phi-4*eps)*float64(o.Len()) {
			t.Errorf("false positive %d (freq %d of %d)", v, freq, o.Len())
		}
	}
	for v := uint64(0); v < 10000; v++ {
		freq := o.Rank(stream.PerturbValue(v+1)) - o.Rank(stream.PerturbValue(v))
		if float64(freq) >= phi*float64(o.Len()) && !reported[v] {
			t.Errorf("missed heavy value %d (freq %d of %d)", v, freq, o.Len())
		}
	}
}

func TestBootstrapExactRanks(t *testing.T) {
	cfg := Config{K: 4, Eps: 0.1} // bootstrap target 40
	tr, _ := New(cfg)
	o := oracle.New()
	g := distinctUniform(30, 23)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%4, x)
		o.Add(x)
	}
	for q := uint64(0); q < 1<<54; q += 1 << 49 {
		if tr.Rank(q) != o.Rank(q) {
			t.Fatalf("bootstrap Rank(%d)=%d != exact %d", q, tr.Rank(q), o.Rank(q))
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		tr, _ := New(Config{K: 4, Eps: 0.08})
		g := distinctUniform(20000, 27)
		for i := 0; ; i++ {
			x, ok := g.Next()
			if !ok {
				break
			}
			tr.Feed(i%4, x)
		}
		return tr.Meter().Total().Words, tr.Rank(1 << 40)
	}
	w1, r1 := run()
	w2, r2 := run()
	if w1 != w2 || r1 != r2 {
		t.Fatalf("identical runs diverged: (%d,%d) vs (%d,%d)", w1, r1, w2, r2)
	}
}

func TestConfigValidationAndPanics(t *testing.T) {
	if _, err := New(Config{K: 0, Eps: 0.1}); err == nil {
		t.Fatal("K=0 should error")
	}
	if _, err := New(Config{K: 2, Eps: 0}); err == nil {
		t.Fatal("Eps=0 should error")
	}
	tr, _ := New(Config{K: 2, Eps: 0.1})
	for name, f := range map[string]func(){
		"bad site":       func() { tr.Feed(5, 1) },
		"bad phi":        func() { tr.Quantile(2) },
		"empty quantile": func() { tr.Quantile(0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestStatsOnEmptyTracker(t *testing.T) {
	tr, _ := New(Config{K: 2, Eps: 0.1})
	if st := tr.TreeStats(); st.Nodes != 0 {
		t.Fatalf("stats on bootstrapping tracker should be zero, got %+v", st)
	}
	if tr.EstTotal() != 0 || tr.TrueTotal() != 0 {
		t.Fatal("totals should start at zero")
	}
	if math.Abs(tr.Eps()-0.1) > 1e-12 || tr.K() != 2 {
		t.Fatal("accessors broken")
	}
}
