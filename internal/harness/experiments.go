package harness

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"disttrack/internal/baseline"
	"disttrack/internal/core"
	"disttrack/internal/core/allq"
	"disttrack/internal/core/hh"
	"disttrack/internal/core/quantile"
	"disttrack/internal/lowerbound"
	"disttrack/internal/stream"
)

// Experiments regenerates every experiment table ("Experiments" in
// docs/architecture.md). quick shrinks stream lengths for test/bench runs;
// the full sizes are used by cmd/experiments.
func Experiments(quick bool) []*Table {
	return []*Table{
		E1(quick), E2K(quick), E2Eps(quick), E3(quick), E4(quick),
		E5N(quick), E5Phi(quick), E6(quick), E7(quick), E8(quick),
		E9(quick), E10(quick), E11(quick), F1(quick), E13(quick),
	}
}

func scaleN(quick bool, full int64) int64 {
	if quick {
		return full / 8
	}
	return full
}

func mustRun(s Spec) Result {
	r, err := Run(s)
	if err != nil {
		panic(fmt.Sprintf("harness experiment: %v", err))
	}
	return r
}

// E1 — Theorem 2.1 cost shape: heavy-hitter words vs log n.
func E1(quick bool) *Table {
	t := NewTable("E1: HH tracking cost vs n (k=16, eps=0.01, zipf)",
		"n", "words", "msgs", "words/(k/eps)", "per-log2n")
	t.Note = "Theorem 2.1 predicts words ≈ C·(k/eps)·log n, but the last column rises toward C from below, not flat: " +
		"the first n0 = ⌈3k/eps⌉ arrivals are a bootstrap that forwards each one and runs no rounds, so words ≈ n0 + C·(k/eps)·log2(n/n0). " +
		"Compare words per doubling of n: the difference of two rows over the doublings between them."
	const k, eps = 16, 0.01
	for _, n := range []int64{1 << 14, 1 << 16, 1 << 18, 1 << 20} {
		n = scaleN(quick, n)
		r := mustRun(Spec{Algo: HHExact, K: k, Eps: eps, N: n, Workload: WZipf, Seed: 1})
		norm := float64(r.Words) / (float64(k) / eps)
		t.Add(n, r.Words, r.Msgs, norm, norm/math.Log2(float64(n)))
	}
	return t
}

// E2K — Theorem 2.1 cost shape: words vs k.
func E2K(quick bool) *Table {
	t := NewTable("E2a: HH tracking cost vs k (n=2^18, eps=0.02)",
		"k", "words", "words/k")
	t.Note = "Linear in k: words/k should be ~flat."
	n := scaleN(quick, 1<<18)
	for _, k := range []int{4, 8, 16, 32, 64} {
		r := mustRun(Spec{Algo: HHExact, K: k, Eps: 0.02, N: n, Workload: WZipf, Seed: 2})
		t.Add(k, r.Words, float64(r.Words)/float64(k))
	}
	return t
}

// E2Eps — Theorem 2.1 cost shape: words vs 1/ε.
func E2Eps(quick bool) *Table {
	t := NewTable("E2b: HH tracking cost vs 1/eps (n=2^18, k=8)",
		"1/eps", "words", "words*eps")
	t.Note = "Linear in 1/eps: words*eps should be ~flat."
	n := scaleN(quick, 1<<18)
	for _, inv := range []int{16, 32, 64, 128, 256} {
		eps := 1 / float64(inv)
		r := mustRun(Spec{Algo: HHExact, K: 8, Eps: eps, N: n, Workload: WZipf, Seed: 3})
		t.Add(inv, r.Words, float64(r.Words)*eps)
	}
	return t
}

// E3 — the Θ(1/ε) improvement over the prior art (who wins, by how much).
func E3(quick bool) *Table {
	t := NewTable("E3: HH words — Thm 2.1 vs CGMR'05-push vs poll vs naive (k=8, n=2^18)",
		"1/eps", "hh", "push", "poll", "naive", "push/hh")
	t.Note = "Paper: improvement grows as Θ(1/eps); naive is Θ(n) regardless."
	n := scaleN(quick, 1<<18)
	for _, inv := range []int{16, 32, 64, 128} {
		eps := 1 / float64(inv)
		rh := mustRun(Spec{Algo: HHExact, K: 8, Eps: eps, N: n, Workload: WZipf, Seed: 4})
		rp := mustRun(Spec{Algo: Push, K: 8, Eps: eps, N: n, Workload: WZipf, Seed: 4})
		rl := mustRun(Spec{Algo: Poll, K: 8, Eps: eps, N: n, Workload: WZipf, Seed: 4})
		rn := mustRun(Spec{Algo: Naive, K: 8, Eps: eps, N: n, Workload: WZipf, Seed: 4})
		t.Add(inv, rh.Words, rp.Words, rl.Words, rn.Words,
			float64(rp.Words)/float64(rh.Words))
	}
	return t
}

// E4 — Lemmas 2.2 + 2.3: the lower bound, measured.
func E4(quick bool) *Table {
	t := NewTable("E4: lower bound — nemesis changes and adversarially forced messages",
		"k", "n", "HH changes", "changes/log2n*eps", "forced msgs/change", "forced/k")
	t.Note = "Lemma 2.2: changes = Ω(log n / eps). Lemma 2.3: each change forces Ω(k) messages."
	const phi, eps = 0.2, 0.05
	nTarget := scaleN(quick, 1<<18)
	items, _ := lowerbound.HHNemesis(phi, eps, nTarget)
	changes := lowerbound.CountHHChanges(items, phi, eps)
	for _, k := range []int{4, 8, 16, 32} {
		tr, err := hh.New(hh.Config{K: k, Eps: eps})
		if err != nil {
			panic(err)
		}
		warm := stream.Uniform(1_000_000, nTarget, int64(k))
		for i := 0; ; i++ {
			x, ok := warm.Next()
			if !ok {
				break
			}
			tr.Feed(i%k, x)
		}
		budget := int64(eps * float64(tr.TrueTotal()))
		forced := lowerbound.ForceMessages(tr, 31337, budget)
		n := float64(len(items))
		t.Add(k, len(items), changes,
			float64(changes)/math.Log2(n)*eps,
			forced, float64(forced)/float64(k))
	}
	return t
}

// E5N — Theorem 3.1 cost shape: median-tracking words vs n and vs k.
func E5N(quick bool) *Table {
	t := NewTable("E5a: median tracking cost vs n (k=8, eps=0.02)",
		"n", "words", "rounds", "per-log2n")
	t.Note = "Theorem 3.1 predicts O(k/eps·log n), but the last column rises toward the per-round constant from below, not flat: " +
		"the first ⌈32k/eps⌉ arrivals are a bootstrap that runs no rounds, yet count in log2 n. " +
		"The target was set where a round built from samples began to cost fewer words than forwarding; rounds now merge the last round's intervals by exact count, and the target is kept. E13 reads the per-round constant directly."
	const k, eps = 8, 0.02
	for _, n := range []int64{1 << 15, 1 << 17, 1 << 19} {
		n = scaleN(quick, n)
		r := mustRun(Spec{Algo: QuantExact, K: k, Eps: eps, Phi: 0.5, N: n, Workload: WUniform, Seed: 5})
		norm := float64(r.Words) / (float64(k) / eps)
		t.Add(n, r.Words, r.Extra["rounds"], norm/math.Log2(float64(n)))
	}
	return t
}

// E5Phi — Theorem 3.1 for non-median quantiles.
func E5Phi(quick bool) *Table {
	t := NewTable("E5b: quantile tracking cost vs phi (k=8, eps=0.02, n=2^17)",
		"phi", "words", "relocs", "max rank err/eps")
	t.Note = "The generalization from the median: cost and accuracy stable across phi."
	n := scaleN(quick, 1<<17)
	for _, phi := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		r := mustRun(Spec{Algo: QuantExact, K: 8, Eps: 0.02, Phi: phi, N: n,
			Workload: WUniform, Seed: 6, CheckEvery: 997})
		t.Add(phi, r.Words, r.Extra["relocs"], r.MaxErr/0.02)
	}
	return t
}

// E6 — the §3.2 median lower bound construction.
func E6(quick bool) *Table {
	t := NewTable("E6: median nemesis — changes vs n and tracker cost on it (k=8, eps=0.02)",
		"n", "median changes", "changes/log2n*eps", "tracker words", "words/change/k")
	t.Note = "§3.2: Ω(log n/eps) median changes; each needs Ω(k) communication."
	const k, eps = 8, 0.02
	for _, target := range []int64{1 << 15, 1 << 17, 1 << 19} {
		target = scaleN(quick, target)
		items, _ := lowerbound.MedianNemesis(eps, target)
		changes := lowerbound.CountMedianChanges(items)
		tr, err := quantile.New(quantile.Config{K: k, Eps: eps, Phi: 0.5})
		if err != nil {
			panic(err)
		}
		g := stream.Perturb(stream.FromSlice(items))
		for i := 0; ; i++ {
			x, ok := g.Next()
			if !ok {
				break
			}
			tr.Feed(i%k, x)
		}
		words := tr.Meter().Total().Words
		n := float64(len(items))
		t.Add(len(items), changes, float64(changes)/math.Log2(n)*eps,
			words, float64(words)/float64(changes)/float64(k))
	}
	return t
}

// E7 — Theorem 4.1: all-quantile cost vs ε and vs a single quantile.
func E7(quick bool) *Table {
	t := NewTable("E7: all-quantile cost vs 1/eps (k=8, n=2^17)",
		"1/eps", "allq words", "1-quantile words", "ratio", "ratio/log2(1/e)^2")
	t.Note = "Theorem 4.1: allq pays an extra O(log^2(1/eps)) over Theorem 3.1."
	n := scaleN(quick, 1<<17)
	for _, inv := range []int{8, 16, 32, 64} {
		eps := 1 / float64(inv)
		ra := mustRun(Spec{Algo: AllQ, K: 8, Eps: eps, N: n, Workload: WUniform, Seed: 7})
		rq := mustRun(Spec{Algo: QuantExact, K: 8, Eps: eps, Phi: 0.5, N: n, Workload: WUniform, Seed: 7})
		ratio := float64(ra.Words) / float64(rq.Words)
		lg := math.Log2(1 / eps)
		t.Add(inv, ra.Words, rq.Words, ratio, ratio/(lg*lg))
	}
	return t
}

// E8 — the continuous guarantee: worst observed error over every checked
// prefix, all algorithms. The quick stream is half the full one, not an
// eighth: long enough that every core tracker reaches its second round, so
// the check covers the tracking phase and not only the exact bootstrap.
func E8(quick bool) *Table {
	t := NewTable("E8: accuracy at all times (eps=0.05, k=8, n=2^16)",
		"algo", "workload", "max err/eps", "violations", "rounds")
	t.Note = "Contract: violations must be 0 and max err/eps <= 1 (1.5 for allq extraction); core trackers reach rounds >= 2."
	n := int64(1 << 16)
	if quick {
		n /= 2
	}
	for _, algo := range []Algo{HHExact, HHSketch, QuantExact, QuantSketch, AllQ, Push, Poll, Sampling} {
		for _, w := range []Workload{WZipf, WUniform} {
			r := mustRun(Spec{Algo: algo, K: 8, Eps: 0.05, N: n, Workload: w,
				Seed: 8, CheckEvery: 499})
			t.Add(string(algo), w.Name, r.MaxErr/0.05, r.Violations, int(r.Extra["rounds"]))
		}
	}
	return t
}

// E9 — the "implementing with small space" remarks: sketch-mode site space.
func E9(quick bool) *Table {
	t := NewTable("E9: per-site space, exact vs sketch mode (k=8, n=2^17)",
		"algo", "1/eps", "exact site space", "sketch site space", "ratio",
		"words exact", "words sketch")
	t.Note = "Sketch mode: O(1/eps) (HH) / O(1/eps·log eps*n) (quantile) space; ~same communication."
	n := scaleN(quick, 1<<17)
	for _, inv := range []int{20, 50} {
		eps := 1 / float64(inv)
		// Heavy hitters.
		te, _ := hh.New(hh.Config{K: 8, Eps: eps})
		ts, _ := hh.New(hh.Config{K: 8, Eps: eps, Mode: hh.ModeSketch})
		feedBoth(te.Feed, ts.Feed, n, 9)
		t.Add("hh", inv, te.SiteSpace(0), ts.SiteSpace(0),
			float64(te.SiteSpace(0))/float64(ts.SiteSpace(0)),
			te.Meter().Total().Words, ts.Meter().Total().Words)
		// Single quantile.
		qe, _ := quantile.New(quantile.Config{K: 8, Eps: eps, Phi: 0.5})
		qs, _ := quantile.New(quantile.Config{K: 8, Eps: eps, Phi: 0.5, Mode: quantile.ModeSketch})
		feedBothPerturbed(qe.Feed, qs.Feed, n, 10)
		t.Add("quantile", inv, qe.SiteSpace(0), qs.SiteSpace(0),
			float64(qe.SiteSpace(0))/float64(qs.SiteSpace(0)),
			qe.Meter().Total().Words, qs.Meter().Total().Words)
	}
	return t
}

func feedBoth(f1, f2 func(int, uint64), n, seed int64) {
	g := WZipf.Make(n, seed)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			return
		}
		f1(i%8, x)
		f2(i%8, x)
	}
}

func feedBothPerturbed(f1, f2 func(int, uint64), n, seed int64) {
	g := stream.Perturb(WUniform.Make(n, seed))
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			return
		}
		f1(i%8, x)
		f2(i%8, x)
	}
}

// E10 — §5: randomized sampling vs the deterministic bound; crossover near
// eps ≈ 1/k.
func E10(quick bool) *Table {
	t := NewTable("E10: deterministic HH vs randomized sampling (k=32, n=2^18)",
		"1/eps", "deterministic words", "sampling words", "det/sampling")
	t.Note = "§5: sampling wins (ratio > 1) while 1/eps << k... and loses once 1/eps^2 dominates k/eps, i.e. 1/eps >> k."
	n := scaleN(quick, 1<<18)
	const k = 32
	for _, inv := range []int{4, 8, 16, 64, 256} {
		eps := 1 / float64(inv)
		rd := mustRun(Spec{Algo: HHExact, K: k, Eps: eps, N: n, Workload: WZipf, Seed: 11})
		rs := mustRun(Spec{Algo: Sampling, K: k, Eps: eps, N: n, Workload: WZipf, Seed: 11})
		t.Add(inv, rd.Words, rs.Words, float64(rd.Words)/float64(rs.Words))
	}
	return t
}

// E11 — the continuous view: cumulative communication as the stream grows,
// for the same prefix sequence, across algorithms (the crossover "figure").
func E11(quick bool) *Table {
	t := NewTable("E11: cumulative words over stream progress (k=8, eps=1/32, zipf)",
		"n so far", "hh", "push", "naive", "hh/naive")
	t.Note = "The same prefixes for every algorithm: where each one's cumulative cost crosses."
	const k = 8
	eps := 1.0 / 32
	total := scaleN(quick, 1<<19)
	hhTr, err := hh.New(hh.Config{K: k, Eps: eps})
	if err != nil {
		panic(err)
	}
	pushTr, err := newPushForE11(k, eps)
	if err != nil {
		panic(err)
	}
	g := WZipf.Make(total, 13)
	next := int64(1 << 13)
	var n int64
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		hhTr.Feed(i%k, x)
		pushTr.Feed(i%k, x)
		n++
		if n == next {
			next *= 4
			t.Add(n, hhTr.Meter().Total().Words, pushTr.Meter().Total().Words, n,
				float64(hhTr.Meter().Total().Words)/float64(n))
		}
	}
	return t
}

func newPushForE11(k int, eps float64) (*baseline.Push, error) {
	return baseline.NewPush(k, eps)
}

// F1 — Figure 1: the §4 tree structure invariants during tracking.
func F1(quick bool) *Table {
	t := NewTable("F1: all-quantile tree shape during tracking (k=8, eps=0.02)",
		"n", "leaves", "eps*leaves", "height", "height cap", "min leaf/(eps*m)", "max leaf/(eps*m)")
	t.Note = "Figure 1: Θ(1/eps) leaves of Θ(eps*m) items; height Θ(log 1/eps)."
	tr, err := allq.New(allq.Config{K: 8, Eps: 0.02})
	if err != nil {
		panic(err)
	}
	total := scaleN(quick, 1<<19)
	g := stream.Perturb(stream.Uniform(1<<30, total, 12))
	next := int64(1 << 13)
	var n int64
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%8, x)
		n++
		if n == next {
			next *= 4
			if tr.Bootstrapping() {
				continue // no tree yet
			}
			st := tr.TreeStats()
			em := 0.02 * float64(tr.RoundM())
			t.Add(n, st.Leaves, 0.02*float64(st.Leaves), st.Height, st.HeightCap,
				float64(st.MinLeafS)/em, float64(st.MaxLeafS)/em)
		}
	}
	return t
}

// E13 — Theorems 2.1, 3.1 and 4.1's constants, by message kind: each
// tracker's words per round and per doubling of n. Each window runs from just
// after one round change to just after the last, so it holds whole rounds'
// reports and round builds; the bootstrap and the unfinished last round are
// left out. A doubling is log2 of the arrivals at the window's end over those
// at its start: quantile and allq rounds are doublings, hh's grow |A| by
// about 1+eps/3.
func E13(quick bool) *Table {
	t := NewTable("E13: words per round by message kind (k=8, eps=0.05, n=2^22; quantile tracks phis 0.5 0.99)",
		"tracker", "workload", "kind", "words/round/(k/eps)", "words/doubling/(k/eps)", "share")
	t.Note = "Theorems 2.1, 3.1 and 4.1: O(k/eps) words per doubling of n (allq: times log^2(1/eps)). " +
		"A change to a protocol's cost moves the rows of the message kinds it touches."
	const k, eps = 8, 0.05
	n := scaleN(quick, 1<<22)
	trackers := []struct {
		name string
		new  func() (core.Tracker, error)
	}{
		{"hh", func() (core.Tracker, error) { return hh.New(hh.Config{K: k, Eps: eps}) }},
		{"quantile", func() (core.Tracker, error) {
			return quantile.New(quantile.Config{K: k, Eps: eps, Phis: []float64{0.5, 0.99}})
		}},
		{"allq", func() (core.Tracker, error) { return allq.New(allq.Config{K: k, Eps: eps}) }},
	}
	for _, tk := range trackers {
		for _, w := range []Workload{WUniform, WZipf} {
			tr, err := tk.new()
			if err != nil {
				panic(err)
			}
			snapshot := func() map[string]int64 {
				words := map[string]int64{}
				for _, kind := range tr.Meter().Kinds() {
					words[kind] = tr.Meter().Kind(kind).Words
				}
				return words
			}
			var first, last map[string]int64
			var firstN, lastN int64
			firstRound, rounds := 0, 0
			g := w.Make(n, 5)
			if tk.name != "hh" {
				g = stream.Perturb(g)
			}
			for i := int64(0); ; i++ {
				x, ok := g.Next()
				if !ok {
					break
				}
				tr.Feed(int(i%k), x)
				if tr.Rounds() != rounds {
					rounds = tr.Rounds()
					last, lastN = snapshot(), i+1
					if first == nil {
						first, firstN, firstRound = last, lastN, rounds
					}
				}
			}
			windows := float64(rounds - firstRound)
			if windows < 1 {
				panic("E13: no complete round")
			}
			doublings := math.Log2(float64(lastN) / float64(firstN))
			unit := func(words int64, per float64) float64 { return float64(words) / per / (k / eps) }
			kinds := make([]string, 0, len(last))
			var words int64 // summed as integers, so map order cannot move the last digit
			for kind := range last {
				if last[kind] != first[kind] {
					kinds = append(kinds, kind)
					words += last[kind] - first[kind]
				}
			}
			slices.SortFunc(kinds, func(a, b string) int {
				if c := cmp.Compare(last[b]-first[b], last[a]-first[a]); c != 0 {
					return c
				}
				return strings.Compare(a, b)
			})
			for _, kind := range kinds {
				d := last[kind] - first[kind]
				t.Add(tk.name, w.Name, kind, unit(d, windows), unit(d, doublings), float64(d)/float64(words))
			}
			t.Add(tk.name, w.Name, "total", unit(words, windows), unit(words, doublings), 1.0)
		}
	}
	return t
}
