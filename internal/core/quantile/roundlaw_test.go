package quantile

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"disttrack/internal/oracle"
	"disttrack/internal/stream"
)

// TestRoundBuildLaw checks the round build's derivation (docs/architecture.md,
// "Quantile rounds merge, not resample") right after every round build. With
// cap = ⌊3εm/16⌋ for the new round's m:
//
//   - every coordinator count ivCount equals the interval's exact count, and
//     every M's lBase is its exact rank;
//   - the first round cuts the bootstrap keys exactly: every interval but
//     the last holds cap items, the last at most cap;
//   - a later build's fresh interval holds at most max(cap, its largest old
//     part), and that is below splitAt (a merged run of old intervals holds
//     at most cap; an old interval over cap stays alone), and after a
//     doubling below εm/4;
//   - any two adjacent merged intervals hold more than cap together, so a
//     round opens with at most 32/(3ε) + 1 intervals.
//
// Each case feeds nine bootstrap targets one arrival at a time (the handoff
// build and three doublings), then grows to K + 2 sites, feeds a target
// more, and shrinks to max(K − 1, 1): a Reconfigure build's m′ may be under
// twice the round's m, so it splits any merged interval at or over splitAt,
// and the pair bound is checked on the merged intervals its splits cut. The
// largest fresh count/(εm), after doublings and after a Reconfigure, and the
// largest interval count·ε are logged.
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
	var worst buildStats
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
						target := (&policy{cfg: cfg}).bootTarget()
						st := roundBuildLaw(t, cfg, s.gen(10*target), a.assign(k), 9*target)
						worst.fresh = max(worst.fresh, st.fresh)
						worst.reconf = max(worst.reconf, st.reconf)
						worst.intervals = max(worst.intervals, st.intervals)
					})
				}
			}
		}
	}
	t.Logf("fresh intervals hold at most %.4f·εm after a handoff or doubling (bound 0.25), %.4f·εm after a Reconfigure (splitAt 0.375); a round opens with at most %.3f/ε intervals (bound 32/3 = 10.667)",
		worst.fresh, worst.reconf, worst.intervals)
}

type buildStats struct {
	fresh     float64 // largest fresh interval count / εm, handoff and doublings
	reconf    float64 // the same after a Reconfigure
	intervals float64 // most intervals a build left, times ε
}

// roundBuildLaw feeds n arrivals of gen one at a time, grows to K + 2 sites
// and feeds the rest, then shrinks, checking every build (checkBuild).
func roundBuildLaw(t *testing.T, cfg Config, gen stream.Generator, assign stream.Assigner, n int64) buildStats {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var st buildStats
	feed := func(limit int64) {
		for i := tr.TrueTotal(); i < limit; i++ {
			x, ok := gen.Next()
			if !ok {
				return
			}
			old, rounds := tr.p.seps, tr.Rounds()
			first := tr.Bootstrapping()
			tr.Feed(assign.Site(int(i), x)%tr.K(), x)
			if tr.Rounds() != rounds {
				checkBuild(t, tr, old, first, false, &st)
			}
		}
	}
	feed(n)
	if tr.Rounds() < 4 {
		t.Fatalf("%d round builds, want the handoff and three doublings", tr.Rounds())
	}
	for _, k := range []int{cfg.K + 2, max(cfg.K-1, 1)} {
		old := tr.p.seps
		if err := tr.Reconfigure(k); err != nil {
			t.Fatal(err)
		}
		checkBuild(t, tr, old, false, true, &st)
		feed(tr.TrueTotal() + n/9)
	}
	return st
}

// checkBuild checks the round just built (the first, a doubling or a
// Reconfigure) against the separators old that the previous round ended with.
func checkBuild(t *testing.T, tr *Tracker, old []uint64, first, reconf bool, st *buildStats) {
	t.Helper()
	p := tr.p
	em := tr.Eps() * float64(p.m)
	limit := max(1, int64(3*em/16))
	at := fmt.Sprintf("round %d (m %d, k %d)", tr.Rounds(), p.m, tr.K())
	if p.m != tr.TrueTotal() {
		t.Fatalf("%s: m is %d, |A| is %d", at, p.m, tr.TrueTotal())
	}
	counts := tr.IntervalTrueCounts()
	for iv, c := range counts {
		if p.ivCount[iv] != c {
			t.Fatalf("%s: interval %d: ivCount %d, exact %d", at, iv, p.ivCount[iv], c)
		}
		if reconf {
			st.reconf = max(st.reconf, float64(c)/em)
		} else {
			st.fresh = max(st.fresh, float64(c)/em)
		}
	}
	for _, q := range p.qs {
		var rank int64
		for _, s := range p.sites {
			rank += s.st.RankOf(q.m0)
		}
		if q.lBase != rank || q.tBase != p.m {
			t.Fatalf("%s: M for φ %g has lBase %d, tBase %d; exact rank %d, m %d", at, q.phi, q.lBase, q.tBase, rank, p.m)
		}
	}
	if first {
		for iv, c := range counts {
			if last := iv == len(counts)-1; c > limit || (!last && c != limit) {
				t.Fatalf("%s: the first cut's interval %d of %d holds %d items, want exactly cap %d (the last at most cap)",
					at, iv, len(counts), c, limit)
			}
		}
		st.intervals = max(st.intervals, float64(len(counts))*tr.Eps())
		return
	}

	// The old intervals' exact counts now, at the build.
	oldCount := func(i int) int64 {
		lo, hi := uint64(0), uint64(math.MaxUint64)
		if i > 0 {
			lo = old[i-1]
		}
		if i < len(old) {
			hi = old[i]
		}
		var c int64
		for _, s := range p.sites {
			c += s.st.CountRange(lo, hi)
		}
		return c
	}
	oldIndex := func(x uint64) int { // the old interval holding x
		i, found := slices.BinarySearch(old, x)
		if found {
			i++
		}
		return i
	}
	for iv, c := range counts {
		lo, hi := p.ivBounds(iv)
		var part int64
		for i := oldIndex(lo); i <= len(old) && (i == 0 || old[i-1] < hi); i++ {
			part = max(part, oldCount(i))
		}
		if c > max(limit, part) || c >= p.splitAt {
			t.Fatalf("%s: fresh interval %d of %d holds %d items; cap %d, its largest old part %d, splitAt %d",
				at, iv, len(counts), c, limit, part, p.splitAt)
		}
		if !reconf && float64(c) >= em/4 {
			t.Fatalf("%s: fresh interval %d of %d holds %d items after a doubling, not under εm/4 = %.1f",
				at, iv, len(counts), c, em/4)
		}
	}
	// The merged intervals are the runs between kept old separators: a
	// split (Reconfigure only) cuts one of them at a value that was no old
	// separator.
	var merged []int64
	for iv, c := range counts {
		if iv == 0 || slices.Contains(old, p.seps[iv-1]) {
			merged = append(merged, 0)
		}
		merged[len(merged)-1] += c
	}
	for i := 1; i < len(merged); i++ {
		if merged[i-1]+merged[i] <= limit {
			t.Fatalf("%s: merged intervals %d and %d hold %d + %d items, not more than cap %d",
				at, i-1, i, merged[i-1], merged[i], limit)
		}
	}
	if bound := 2*float64(p.m)/float64(limit) + 1; float64(len(merged)) > bound {
		t.Fatalf("%s: %d merged intervals, over 2m/cap + 1 = %.1f", at, len(merged), bound)
	}
	st.intervals = max(st.intervals, float64(len(merged))*tr.Eps())
}

// TestRoundBuildSketch checks the sketch-mode bound of the merge
// (docs/architecture.md, "Quantile rounds merge, not resample"): GK's error
// at each end of an interval adds at most εm′/16 across the sites, so after
// every doubling build each fresh interval's true count is at most 5εm′/16,
// and the coordinator's count, an estimate, is below splitAt.
func TestRoundBuildSketch(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func(n int64) stream.Generator
	}{
		{"uniform", func(n int64) stream.Generator { return distinctUniform(n, 53) }},
		{"zipf", func(n int64) stream.Generator { return stream.Perturb(stream.Zipf(1<<20, n, 1.3, 54)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{K: 8, Eps: 0.05, Phis: sweepPhis, Mode: ModeSketch}
			tr, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p := tr.p
			o := oracle.New()
			gen := tc.gen(9 * p.bootTarget())
			worst := 0.0
			for i := 0; ; i++ {
				x, ok := gen.Next()
				if !ok {
					break
				}
				rounds := tr.Rounds()
				tr.Feed(i%cfg.K, x)
				o.Add(x)
				if tr.Rounds() == rounds || rounds == 0 {
					continue
				}
				em := cfg.Eps * float64(p.m)
				for iv, c := range p.ivCount {
					lo, hi := p.ivBounds(iv)
					exact := o.Rank(hi) - o.Rank(lo)
					if hi == math.MaxUint64 {
						exact = o.Len() - o.Rank(lo)
					}
					worst = max(worst, float64(exact)/em)
					if float64(exact) > 5*em/16 || c >= p.splitAt {
						t.Fatalf("round %d (m %d): interval %d holds %d items (ivCount %d); want at most 5εm/16 = %.1f, ivCount below %d",
							tr.Rounds(), p.m, iv, exact, c, 5*em/16, p.splitAt)
					}
				}
			}
			if tr.Rounds() < 4 {
				t.Fatalf("%d rounds, want three doublings", tr.Rounds())
			}
			t.Logf("fresh intervals hold at most %.4f·εm (bound 0.3125)", worst)
		})
	}
}
