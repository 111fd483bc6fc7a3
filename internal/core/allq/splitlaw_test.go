package allq

import (
	"fmt"
	"math/bits"
	"testing"

	"disttrack/internal/oracle"
	"disttrack/internal/sitestore"
	"disttrack/internal/stream"
)

// checkSplitResp decodes a site's "split-resp" for [lo, hi) and returns
// its n_j, or an error unless the reply has the length of the rule: one
// word, n_j = 0, from a site that holds nothing there, else one word when
// 6 + bits(n_j) + bits(hi − lo) ≤ 64 and two otherwise; and a median, when
// sent, lies in [lo, hi]. Taps run on the feeders' goroutines too, so they
// report failures by value.
func checkSplitResp(words []uint64, lo, hi uint64) (int64, error) {
	med, n, err := sitestore.DecodeSplitResp(words, lo, hi)
	if err != nil {
		return 0, err
	}
	want := 1
	if n > 0 && 6+bits.Len64(uint64(n))+bits.Len64(hi-lo) > 64 {
		want = 2
	}
	if len(words) != want {
		return 0, fmt.Errorf("holds %d items in [%d, %d) and answers %d words, want %d", n, lo, hi, len(words), want)
	}
	if n > 0 && (med < lo || med > hi) {
		return 0, fmt.Errorf("median %d outside [%d, %d]", med, lo, hi)
	}
	return n, nil
}

// cutWatch checks every leaf split of one tracker through the meter's tap,
// as its messages are sent, so cuts inside a batch and on the concurrent
// schedule are checked too.
type cutWatch struct {
	tb    testing.TB
	tr    *Tracker
	truth *oracle.Counter // sketch mode: the arrivals before the current call
	lag   int64           // the most arrivals one call feeds (0: no truth)

	lo, hi, y  uint64
	n          []int64 // each site's n_j, from its "split-resp"
	a1, a2     int64   // the halves' counts the messages give
	answered   int
	cuts       int
	worst      float64 // the smaller half's least share of its leaf
	sketchCuts int     // sketch cuts checked against the truth
}

// errorf reports a failure without stopping the test: the tap runs on the
// feeders' goroutines too (enginetest.Watch).
func (w *cutWatch) errorf(format string, args ...any) {
	w.tb.Errorf("|A|=%d: "+format, append([]any{w.tr.TrueTotal()}, args...)...)
}

func (w *cutWatch) tap(kind string, j int, words []uint64) {
	p := w.tr.p
	switch kind {
	case "split-req":
		u := collectNodes(p.root)[words[0]]
		if j == 0 {
			w.lo, w.hi, w.n, w.a1, w.a2, w.answered = u.lo, u.hi, make([]int64, len(p.sites)), 0, 0, 0
		}
	case "split-resp":
		var err error
		if w.n[j], err = checkSplitResp(words, w.lo, w.hi); err != nil {
			w.errorf("site %d: %v", j, err)
		}
	case "split-apply":
		w.y = words[0]
	case "split-counts":
		a, err := sitestore.DecodeSplitCount(words, w.n[j])
		if err != nil {
			w.errorf("site %d: \"split-counts\" %v after n_j = %d: %v", j, words, w.n[j], err)
		}
		w.a1 += a
		w.a2 += w.n[j] - a
		if w.answered++; w.answered == len(p.sites) {
			w.check()
		}
	}
}

// check asserts the split-balance law once the last site has answered:
// with exact sites the halves the messages give are the stores' counts of
// [lo, y) and [y, hi), and each lies in [N/4 − k, 3N/4 + k] of the leaf's N;
// with sketch sites, where the truth is known, each half's true count lies
// there within splitSketchSlack of GK's per-end terms more, and within the
// arrivals of the call under way.
func (w *cutWatch) check() {
	p := w.tr.p
	k := float64(len(p.sites))
	at := fmt.Sprintf("cut of [%d, %d) at %d", w.lo, w.hi, w.y)
	left, right, slack := w.a1, w.a2, k
	if !p.cfg.Sketch {
		var l, r int64
		for _, s := range p.sites {
			l += s.st.CountRange(w.lo, w.y)
			r += s.st.CountRange(w.y, w.hi)
		}
		if l != left || r != right {
			w.errorf("%s: the messages give halves %d and %d, the stores hold %d and %d", at, left, right, l, r)
		}
	} else {
		if w.truth == nil || w.lag == 0 {
			w.cuts++
			return
		}
		left, right = w.truth.CountPart(w.lo, w.y), w.truth.CountPart(w.y, w.hi)
		gk := p.cfg.Eps / (2 * float64(heightCap(p.cfg.Eps))) / gkEpsFraction
		slack += splitSketchSlack*gk*float64(w.tr.TrueTotal()) + float64(w.lag)
		w.sketchCuts++
	}
	n := float64(left + right)
	for _, h := range []int64{left, right} {
		if float64(h) < n/4-slack || float64(h) > 3*n/4+slack {
			w.errorf("%s: halves %d and %d of %.0f items: one is outside [N/4 − %.1f, 3N/4 + %.1f]", at, left, right, n, slack, slack)
		}
	}
	if n > 0 {
		w.worst = min(w.worst, float64(min(left, right))/n)
	}
	w.cuts++
}

// splitSketchSlack is the sketch-mode slack of the split-balance law beyond
// k, in units of GK's per-end term summed over the sites (θ_min/4 of |A|,
// θ_min = ε/2·heightCap): the weighted median's bound with every site's
// median, its count and its lo rank off by GK's error (docs/architecture.md,
// "A split sends only what its receiver cannot work out").
const splitSketchSlack = 5

// newCutWatch returns a cutWatch on tr that checks sketch cuts against the
// truth when lag, the most arrivals one call feeds, is not 0.
func newCutWatch(tb testing.TB, tr *Tracker, lag int64) *cutWatch {
	return &cutWatch{tb: tb, tr: tr, lag: lag, worst: 0.5}
}

// atRest takes truth for the cuts of the next call and fails if a leaf is
// over its split trigger.
func (w *cutWatch) atRest(label string, truth *oracle.Counter) {
	w.truth = truth
	p := w.tr.p
	if w.tr.Bootstrapping() {
		return
	}
	var over func(u *node) *node // the first leaf under u over its trigger
	over = func(u *node) *node {
		switch {
		case !u.isLeaf():
			if v := over(u.left); v != nil {
				return v
			}
			return over(u.right)
		case u.s > p.leafSplitAt:
			return u
		}
		return nil
	}
	if u := over(p.root); u != nil {
		w.tb.Fatalf("%s: |A|=%d: leaf [%d, %d) holds %d, over its split trigger %d",
			label, w.tr.TrueTotal(), u.lo, u.hi, u.s, p.leafSplitAt)
	}
}

// TestSplitBalance checks the split-balance law (cutWatch) through the law
// schedules (splitLawLegs) in both store modes and on the Zipf stream, and,
// one arrival a call, on per-leaf site loads that differ by orders of
// magnitude, which the law schedules never make: the value picks the site
// (siteByValue), in both store modes ("by-value"). Above the lowest eighth
// of the key range a leaf then holds nearly all its items at site 0 and one
// or two at each other site, whose medians fall anywhere in it, so only the
// n_j weights place the cut near site 0's median: a cut at the unweighted
// median of the sites' medians fails both "by-value" legs.
func TestSplitBalance(t *testing.T) {
	const k = 4
	for _, sketch := range []bool{false, true} {
		t.Run(fmt.Sprintf("sketch=%t", sketch), func(t *testing.T) {
			t.Run("by-value", func(t *testing.T) {
				tr, err := New(Config{K: k, Eps: 0.1, Sketch: sketch})
				if err != nil {
					t.Fatal(err)
				}
				var xs []uint64
				g := distinctUniform(40000, 64)
				for x, ok := g.Next(); ok; x, ok = g.Next() {
					xs = append(xs, x)
				}
				truth := oracle.NewCounter(xs)
				w := newCutWatch(t, tr, 1)
				tr.Meter().SetTap(w.tap)
				for i, x := range xs {
					if w.atRest("feed", truth); t.Failed() {
						t.FailNow()
					}
					tr.Feed(siteByValue(i, x, k), x)
					truth.Add(x)
				}
				w.atRest("end", truth)
				if w.cuts < 30 || sketch && w.sketchCuts == 0 {
					t.Fatalf("%d cuts (%d against the truth): too few to check", w.cuts, w.sketchCuts)
				}
				t.Logf("%d cuts; the smaller half held at least %.3f of its leaf", w.cuts, w.worst)
			})
			if sketch {
				splitLawLegs(t, lawConfigNamed("sketch"))
			} else {
				splitLawLegs(t, lawConfigNamed("exact"))
			}
		})
	}
	t.Run("zipf", func(t *testing.T) { splitLawLegs(t, lawConfigNamed("zipf")) })
}

// siteByValue is the site of arrival i, x, of a distinct uniform stream
// over 2^30 values (distinctUniform): sites 1..k−1 share, in turn, every x
// in the lowest eighth of the key range and one arrival in 50 elsewhere, and
// site 0 takes the rest.
func siteByValue(i int, x uint64, k int) int {
	if x < 1<<(30+stream.PerturbBits-3) || i%50 == 0 {
		return 1 + i%(k-1)
	}
	return 0
}
