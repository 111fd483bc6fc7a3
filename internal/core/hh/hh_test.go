package hh

import (
	"math"
	"testing"

	"disttrack/internal/oracle"
	"disttrack/internal/stream"
)

// checkContract verifies the ε-approximate heavy-hitter contract at one
// instant: every true φ-heavy hitter is reported, and nothing below
// (φ−ε)|A| is.
func checkContract(t *testing.T, tr *Tracker, o *oracle.Oracle, phi float64, step int) {
	t.Helper()
	eps := tr.Eps()
	reported := map[uint64]bool{}
	for _, x := range tr.HeavyHitters(phi) {
		reported[x] = true
		if float64(o.Count(x)) < (phi-eps)*float64(o.Len()) {
			t.Fatalf("step %d: false positive %d (freq %d, |A|=%d, phi=%g)",
				step, x, o.Count(x), o.Len(), phi)
		}
	}
	for _, x := range o.HeavyHitters(phi) {
		if !reported[x] {
			t.Fatalf("step %d: missed heavy hitter %d (freq %d, |A|=%d, phi=%g)",
				step, x, o.Count(x), o.Len(), phi)
		}
	}
}

func runContractTest(t *testing.T, cfg Config, phi float64,
	gen stream.Generator, assign stream.Assigner) *Tracker {
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
		if i%97 == 0 || i < 50 {
			checkContract(t, tr, o, phi, i)
		}
	}
	checkContract(t, tr, o, phi, -1)
	return tr
}

func TestContractZipfExact(t *testing.T) {
	runContractTest(t, Config{K: 8, Eps: 0.05}, 0.1,
		stream.Zipf(10000, 40000, 1.4, 1), stream.RoundRobin(8))
}

func TestContractZipfSketch(t *testing.T) {
	runContractTest(t, Config{K: 8, Eps: 0.05, Sketch: true}, 0.1,
		stream.Zipf(10000, 40000, 1.4, 2), stream.RoundRobin(8))
}

func TestContractHotSetRandomAssign(t *testing.T) {
	runContractTest(t, Config{K: 16, Eps: 0.04}, 0.15,
		stream.HotSet(100000, 50000, 3, 0.7, 3), stream.RandomAssign(16, 4))
}

func TestContractChurnySketch(t *testing.T) {
	// Two hot items beside a churning cold range of a million, placed at
	// random: nearly every cold arrival evicts a Space-Saving counter, whose
	// newcomer inherits the evicted count as overestimate.
	runContractTest(t, Config{K: 8, Eps: 0.06, Sketch: true}, 0.2,
		stream.HotSet(1_000_000, 50000, 2, 0.5, 63), stream.RandomAssign(8, 64))
}

func TestContractSingleSite(t *testing.T) {
	// All arrivals at one site: the degenerate placement must still satisfy
	// the global guarantee.
	runContractTest(t, Config{K: 8, Eps: 0.05}, 0.1,
		stream.Zipf(5000, 30000, 1.5, 5), stream.SingleSite(3))
}

func TestContractByHashAssign(t *testing.T) {
	runContractTest(t, Config{K: 8, Eps: 0.06, Sketch: true}, 0.12,
		stream.HotSet(50000, 40000, 4, 0.6, 6), stream.ByHash(8))
}

func TestContractShiftingDistribution(t *testing.T) {
	// The hot item changes twice mid-stream — the continuous guarantee must
	// hold through both transitions (the situation Lemma 2.2 formalizes).
	phase := func(hot uint64, n int64, seed int64) stream.Generator {
		var items []uint64
		g := stream.Uniform(100000, n, seed)
		for {
			x, ok := g.Next()
			if !ok {
				break
			}
			items = append(items, x)
			items = append(items, hot) // every other arrival is the hot item
		}
		return stream.FromSlice(items)
	}
	gen := stream.Concat(phase(7, 8000, 1), phase(13, 16000, 2), phase(99, 32000, 3))
	runContractTest(t, Config{K: 8, Eps: 0.05}, 0.3, gen, stream.RoundRobin(8))
}

// checkInvariants asserts the paper's invariants (3) and (2) for an
// exact-mode tracker that has seen n arrivals with frequencies truth:
// m − εm/3 < C.m ≤ m, and m_x − εm/3 < C.m_x ≤ m_x for every seen item.
func checkInvariants(t *testing.T, tr *Tracker, truth map[uint64]int64, n int64, step int) {
	t.Helper()
	slack := tr.Eps() * float64(n) / 3
	cm := tr.EstTotal()
	if cm > n {
		t.Fatalf("step %d: C.m=%d exceeds m=%d", step, cm, n)
	}
	if float64(n-cm) >= slack {
		t.Fatalf("step %d: C.m=%d lags m=%d beyond εm/3", step, cm, n)
	}
	for x, mx := range truth {
		cmx := tr.EstFrequency(x)
		if cmx > mx {
			t.Fatalf("step %d: C.m_%d=%d exceeds true %d (exact mode)", step, x, cmx, mx)
		}
		if float64(mx-cmx) >= slack {
			t.Fatalf("step %d: C.m_%d=%d lags true %d beyond εm/3", step, x, cmx, mx)
		}
	}
}

func TestInvariants2And3(t *testing.T) {
	const k, eps = 8, 0.05
	tr, _ := New(Config{K: k, Eps: eps})
	truth := map[uint64]int64{}
	g := stream.Zipf(1000, 50000, 1.3, 7)
	var n int64
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%k, x)
		truth[x]++
		n++
		var items map[uint64]int64 // invariant (3) on every arrival, (2) every 211th
		if i%211 == 0 {
			items = truth
		}
		checkInvariants(t, tr, items, n, i)
	}
}

func TestSketchModeEstimateError(t *testing.T) {
	const k, eps = 4, 0.08
	tr, _ := New(Config{K: k, Eps: eps, Sketch: true})
	truth := map[uint64]int64{}
	g := stream.Zipf(2000, 40000, 1.4, 9)
	var n int64
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%k, x)
		truth[x]++
		n++
		if i%499 != 0 {
			continue
		}
		for x, mx := range truth {
			cmx := tr.EstFrequency(x)
			en := eps * float64(n)
			if float64(cmx) > float64(mx)+en/4 {
				t.Fatalf("step %d: sketch C.m_%d=%d too far above true %d", i, x, cmx, mx)
			}
			if float64(mx-cmx) >= en/2 {
				t.Fatalf("step %d: sketch C.m_%d=%d too far below true %d", i, x, cmx, mx)
			}
		}
	}
}

func TestSketchModeSiteSpace(t *testing.T) {
	const k, eps = 4, 0.05
	tr, _ := New(Config{K: k, Eps: eps, Sketch: true})
	g := stream.Zipf(1000000, 60000, 1.2, 11)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%k, x)
	}
	// Sketch counters are hard-capped at ⌈8/ε⌉; reporting marks only exist
	// for items that crossed a threshold, which for a zipf stream is a small
	// multiple of that.
	capCounters := int(math.Ceil(8/eps)) + 1
	for j := 0; j < k; j++ {
		if got := tr.SiteSpace(j); got > 6*capCounters {
			t.Fatalf("site %d space %d far above O(1/eps)=%d", j, got, capCounters)
		}
	}
	// Exact mode, by contrast, holds ~distinct-many entries.
	tre, _ := New(Config{K: k, Eps: eps})
	g = stream.Zipf(1000000, 60000, 1.2, 11)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tre.Feed(i%k, x)
	}
	if tre.SiteSpace(0) < 2*6*capCounters {
		t.Skip("stream not diverse enough to contrast exact-mode space")
	}
}

func TestCostBoundAndLogGrowth(t *testing.T) {
	const k, eps = 8, 0.05
	run := func(n int64) int64 {
		tr, _ := New(Config{K: k, Eps: eps})
		g := stream.Zipf(100000, n, 1.3, 13)
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
	// Absolute bound: C * k/eps * log2(n) with a generous constant.
	bound := 40 * float64(k) / eps * 20
	if float64(w20) > bound {
		t.Fatalf("cost %d words beyond O(k/ε log n) scale %f", w20, bound)
	}
	// log n growth: each 4x of n adds a roughly constant number of words.
	d1, d2 := w18-w16, w20-w18
	if d1 <= 0 || d2 <= 0 {
		t.Fatalf("cost not increasing: %d %d %d", w16, w18, w20)
	}
	if r := float64(d2) / float64(d1); r > 2.2 || r < 0.45 {
		t.Fatalf("cost growth per 4x n should be ~constant: deltas %d, %d (ratio %.2f)", d1, d2, r)
	}
}

func TestFreqMessagesBoundedByAll(t *testing.T) {
	const k, eps = 8, 0.05
	tr, _ := New(Config{K: k, Eps: eps})
	g := stream.Zipf(100000, 1<<17, 1.3, 17)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%k, x)
	}
	all := tr.Meter().Kind("all").Msgs
	freq := tr.Meter().Kind("freq").Msgs
	// §2.1: "the total number of (x, ·) messages is no more than the total
	// number of (all, ·) messages" — allow slack for threshold resets.
	if freq > 2*all+int64(k) {
		t.Fatalf("freq msgs %d should be within ~all msgs %d", freq, all)
	}
}

func TestBootstrapPhaseIsExact(t *testing.T) {
	const k, eps = 4, 0.1 // bootstrap target = 40 items
	tr, _ := New(Config{K: k, Eps: eps})
	o := oracle.New()
	g := stream.Uniform(50, 30, 19) // fewer than the bootstrap target
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%k, x)
		o.Add(x)
	}
	if !tr.Bootstrapping() {
		t.Fatal("should still be bootstrapping with n < k/eps")
	}
	if tr.EstTotal() != o.Len() {
		t.Fatalf("bootstrap estimate %d != true %d", tr.EstTotal(), o.Len())
	}
	for x := uint64(0); x < 50; x++ {
		if tr.EstFrequency(x) != o.Count(x) {
			t.Fatalf("bootstrap freq of %d: %d != %d", x, tr.EstFrequency(x), o.Count(x))
		}
	}
}

func TestRoundsGrowLogarithmically(t *testing.T) {
	const k, eps = 4, 0.1
	tr, _ := New(Config{K: k, Eps: eps})
	g := stream.Uniform(1000, 1<<18, 23)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%k, x)
	}
	// A round grows C.m from M_r to at least c·M_r, c = 1 + √(2ε/3), and
	// past it by less than one threshold, ε·M_r/3k, so the rounds number
	// about log_c(C.m/M_0) from the bootstrap target M_0 = ⌈3k/ε⌉:
	// 1/log₂c ≈ 3.0 per doubling, 32 to 34 over these 11 doublings.
	c := 1 + math.Sqrt(2*tr.Eps()/3)
	doublings := math.Log2(float64(tr.EstTotal()) / math.Ceil(3*k/eps))
	lo := doublings/math.Log2(c+eps/(3*k)) - 1
	hi := doublings/math.Log2(c) + 1
	if rounds := float64(tr.Rounds()); rounds < lo || rounds > hi {
		t.Fatalf("rounds=%v over %.2f doublings, want %.1f…%.1f (1/log₂c = %.2f per doubling)",
			rounds, doublings, lo, hi, 1/math.Log2(c))
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() (int64, int64) {
		tr, _ := New(Config{K: 8, Eps: 0.05})
		g := stream.Zipf(10000, 30000, 1.3, 29)
		for i := 0; ; i++ {
			x, ok := g.Next()
			if !ok {
				break
			}
			tr.Feed(i%8, x)
		}
		c := tr.Meter().Total()
		return c.Msgs, c.Words
	}
	m1, w1 := mk()
	m2, w2 := mk()
	if m1 != m2 || w1 != w2 {
		t.Fatalf("identical runs diverged: (%d,%d) vs (%d,%d)", m1, w1, m2, w2)
	}
}

func TestItemThresholdTriggersMessage(t *testing.T) {
	const k, eps = 4, 0.1
	tr, _ := New(Config{K: k, Eps: eps})
	g := stream.Uniform(100, 5000, 31)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%k, x)
	}
	const x, j = 7, 2
	need := tr.ItemThreshold(j, x)
	if need < 1 {
		t.Fatalf("threshold %d < 1", need)
	}
	before := tr.Meter().UpCost().Msgs
	for i := int64(0); i < need; i++ {
		tr.Feed(j, x)
	}
	if after := tr.Meter().UpCost().Msgs; after <= before {
		t.Fatalf("feeding ItemThreshold=%d copies did not trigger a message", need)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{K: 0, Eps: 0.1}); err == nil {
		t.Fatal("K=0 should error")
	}
	if _, err := New(Config{K: 2, Eps: 0}); err == nil {
		t.Fatal("Eps=0 should error")
	}
	if _, err := New(Config{K: 2, Eps: 1}); err == nil {
		t.Fatal("Eps=1 should error")
	}
}

func TestQueryPanics(t *testing.T) {
	tr, _ := New(Config{K: 2, Eps: 0.1})
	for _, phi := range []float64{0.05, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("HeavyHitters(%g) should panic (phi outside [eps,1])", phi)
				}
			}()
			tr.HeavyHitters(phi)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Feed with bad site should panic")
			}
		}()
		tr.Feed(9, 1)
	}()
}

func TestMultiplePhiQueriesFromOneTracker(t *testing.T) {
	// One tracker serves any phi >= eps — a practical upside of tracking
	// C.m_x for all reported x.
	const k, eps = 8, 0.04
	tr, _ := New(Config{K: k, Eps: eps})
	o := oracle.New()
	g := stream.Zipf(10000, 50000, 1.5, 37)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%k, x)
		o.Add(x)
	}
	for _, phi := range []float64{0.04, 0.1, 0.25, 0.5} {
		checkContract(t, tr, o, phi, -1)
	}
}

func TestHeavyHitterEntries(t *testing.T) {
	const k, eps, phi = 4, 0.05, 0.1
	tr, err := New(Config{K: k, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	g := stream.Zipf(1000, 20000, 1.5, 42)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%k, x)
	}
	items := tr.HeavyHitters(phi)
	entries := tr.HeavyHitterEntries(phi)
	if len(entries) != len(items) {
		t.Fatalf("entries %d != items %d", len(entries), len(items))
	}
	want := map[uint64]bool{}
	for _, x := range items {
		want[x] = true
	}
	for i, e := range entries {
		if !want[e.Item] {
			t.Errorf("entry %d not in HeavyHitters set", e.Item)
		}
		if e.Count != tr.EstFrequency(e.Item) {
			t.Errorf("entry %d count %d != EstFrequency %d", e.Item, e.Count, tr.EstFrequency(e.Item))
		}
		if got := float64(e.Count) / float64(tr.EstTotal()); math.Abs(got-e.Ratio) > 1e-12 {
			t.Errorf("entry %d ratio %g, want %g", e.Item, e.Ratio, got)
		}
		if i > 0 && entries[i-1].Count < e.Count {
			t.Errorf("entries not sorted by descending count at %d", i)
		}
	}
	// Per-site counts sum to the true total.
	var sum int64
	for j := 0; j < k; j++ {
		sum += tr.SiteCount(j)
	}
	if sum != tr.TrueTotal() {
		t.Errorf("site counts sum %d != true total %d", sum, tr.TrueTotal())
	}
}
