package quantile

import (
	"fmt"
	"math/bits"
	"testing"

	"disttrack/internal/oracle"
	"disttrack/internal/stream"
)

// checkSplitHalves fails unless both halves of a split interval holding n
// items hold between n/4 − slack and 3n/4 + slack of them, the bound of a
// cut at the n_j-weighted median of the sites' lower local medians
// (docs/architecture.md, "A split sends only what its receiver cannot work
// out"). It returns the smaller half's share of n.
func checkSplitHalves(tb testing.TB, at string, left, right int64, slack float64) float64 {
	tb.Helper()
	n := left + right
	for _, h := range []int64{left, right} {
		if float64(h) < float64(n)/4-slack || float64(h) > 3*float64(n)/4+slack {
			tb.Fatalf("%s: halves %d and %d of %d items: one is outside [n/4 − %.1f, 3n/4 + %.1f]",
				at, left, right, n, slack, slack)
		}
	}
	if n == 0 {
		return 0.5
	}
	return float64(min(left, right)) / float64(n)
}

// checkSplitResp decodes site j's "split-resp" for [lo, hi) and returns
// its n_j, failing unless the reply has the length of the rule: one word,
// n_j = 0, from a site that holds nothing there, else one word when 6 +
// bits(n_j) + bits(hi − lo) ≤ 64 and two otherwise; and a median, when
// sent, lies in [lo, hi].
func checkSplitResp(tb testing.TB, at string, words []uint64, lo, hi uint64) int64 {
	tb.Helper()
	med, n, err := decodeSplitResp(words, lo, hi)
	if err != nil {
		tb.Fatalf("%s: %v", at, err)
	}
	want := 1
	if n > 0 && 6+bits.Len64(uint64(n))+bits.Len64(hi-lo) > 64 {
		want = 2
	}
	if len(words) != want {
		tb.Fatalf("%s: holds %d items in [%d, %d) and answers %d words, want %d", at, n, lo, hi, len(words), want)
	}
	if n > 0 && (med < lo || med > hi) {
		tb.Fatalf("%s: median %d outside [%d, %d]", at, med, lo, hi)
	}
	return n
}

// checkResplit fails if an interval's coordinator count is at or over
// splitAt: every split that leaves a half that full splits it again at once
// (splitFull), so none is left after a call.
func checkResplit(tb testing.TB, label string, tr *Tracker) {
	tb.Helper()
	p := tr.p
	if tr.Bootstrapping() {
		return
	}
	for i, c := range p.ivCount {
		if c >= p.splitAt {
			tb.Fatalf("%s: |A|=%d: interval %d of %d holds coordinator count %d, at or over splitAt %d",
				label, tr.TrueTotal(), i, len(p.ivCount), c, p.splitAt)
		}
	}
}

// TestSplitBalance is the split-balance law on per-site loads the round
// robin of TestRoundMessages never makes: every split of a tracker fed one
// arrival at a time is rebuilt from its messages, and
//
//   - "split-resp" has the length checkSplitResp names: one word when n_j
//     and the median's offset fit beside the width header, and n_j = 0
//     alone from a site that holds nothing in the interval;
//   - each half's true count lies in [N/4 − k, 3N/4 + k] of the interval's
//     true count N with exact sites, and with sketch sites within
//     splitSketchSlack more, GK's per-end terms (docs/architecture.md);
//   - after every arrival no interval's coordinator count is at or over
//     splitAt.
//
// Streams are distinct uniform and Zipf(1.3) perturbed in ascending tie
// order, whose sorted runs keep hot intervals splitting; arrivals go round
// robin, or site 0 takes one in 50 and the others share the rest, so site
// 0's few items give a median far from the others'. A cut at the smallest
// median, not weighted, fails every exact case.
func TestSplitBalance(t *testing.T) {
	const k = 4
	for _, sketch := range []bool{false, true} {
		for _, gen := range []struct {
			name string
			gen  func(n int64) stream.Generator
		}{
			{"uniform", func(n int64) stream.Generator { return distinctUniform(n, 61) }},
			{"zipf", func(n int64) stream.Generator {
				return stream.PerturbTies(stream.Zipf(1<<20, n, 1.3, 62), stream.TiesAscending)
			}},
		} {
			for _, assign := range []struct {
				name string
				site func(i int) int
			}{
				{"round-robin", func(i int) int { return i % k }},
				{"skewed", func(i int) int {
					if i%50 == 0 {
						return 0
					}
					return 1 + i%(k-1)
				}},
			} {
				name := fmt.Sprintf("sketch=%t/%s/%s", sketch, gen.name, assign.name)
				t.Run(name, func(t *testing.T) {
					splitBalance(t, Config{K: k, Eps: 0.05, Phis: []float64{0.5}, Sketch: sketch}, gen.gen, assign.site)
				})
			}
		}
	}
}

// splitSketchSlack is the sketch-mode slack of checkSplitHalves beyond k,
// in units of GK's per-end term summed over the sites, ε|A|/32
// (docs/architecture.md, "A split sends only what its receiver cannot work
// out").
const splitSketchSlack = 5

func splitBalance(t *testing.T, cfg Config, gen func(n int64) stream.Generator, site func(i int) int) {
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := tr.p
	g := gen(40 * p.bootTarget())
	var xs []uint64
	for {
		x, ok := g.Next()
		if !ok {
			break
		}
		xs = append(xs, x)
	}
	truth := oracle.NewCounter(xs)

	var lo, hi, y uint64
	splits, worst := 0, 0.5
	tr.Meter().SetTap(func(kind string, j int, words []uint64) {
		switch kind {
		case "split-req":
			lo, hi = p.ivBounds(decodeSplitReq(words))
		case "split-resp":
			checkSplitResp(t, fmt.Sprintf("|A|=%d: site %d", tr.TrueTotal(), j), words, lo, hi)
		case "split-apply":
			_, y = decodeSplit(p.seps, words)
		case "split-counts":
			if j < len(p.sites)-1 {
				return
			}
			// The last site has answered: the halves are [lo, y) and [y, hi].
			left, right := truth.CountPart(lo, y), truth.CountPart(y, hi)
			slack := float64(cfg.K)
			if cfg.Sketch {
				slack += splitSketchSlack * cfg.Eps * float64(tr.TrueTotal()) / gkEpsFraction
			}
			at := fmt.Sprintf("|A|=%d: split of [%d, %d] at %d", tr.TrueTotal(), lo, hi, y)
			worst = min(worst, checkSplitHalves(t, at, left, right, slack))
			splits++
		}
	})
	for i, x := range xs {
		truth.Add(x) // before the arrival: a split in its escalation sees it
		tr.Feed(site(i), x)
		checkResplit(t, "feed", tr)
	}
	if splits < 30 {
		t.Fatalf("%d splits: too few to check", splits)
	}
	t.Logf("%d splits; the smaller half held at least %.3f of its interval", splits, worst)
}

// TestEscalateResplits drives the re-split through a report: it inserts
// 3·splitAt items of interval 0 straight into site 1's store, past its
// counters (far more than the k·thrIv unreported arrivals the protocol
// leaves, so that the halves are surely full), then feeds site 0 arrivals
// in the interval until it splits. The split counts the inserted items
// exactly, so both halves hold about twice splitAt, and the report's
// splitFull must split them again before the call returns. Splitting the
// reported interval once fails it.
func TestEscalateResplits(t *testing.T) {
	tr, err := New(Config{K: 4, Eps: 0.05, Phis: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	p := tr.p
	g := distinctUniform(2*p.bootTarget(), 63)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%4, x)
	}
	if tr.Bootstrapping() {
		t.Fatal("still bootstrapping")
	}
	lo, hi := p.ivBounds(0)
	hidden := 3 * p.splitAt
	gap := (hi - lo) / uint64(2*hidden+2)
	var xs []uint64
	for i := range uint64(hidden) {
		xs = append(xs, lo+(2*i+1)*gap) // odd multiples of gap: site 0 feeds the even ones
	}
	p.sites[1].st.InsertBatch(xs)

	splits := tr.Splits()
	for i := uint64(1); tr.Splits() == splits; i++ {
		if i > uint64(hidden) {
			t.Fatal("interval 0 never split")
		}
		tr.Feed(0, lo+2*i*gap)
		checkResplit(t, "report", tr)
	}
	if got := tr.Splits() - splits; got < 3 {
		t.Fatalf("%d splits in the report's call, want the split and a re-split of each half", got)
	}
}
