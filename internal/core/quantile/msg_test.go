package quantile

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/core/engine/enginetest"
	"disttrack/internal/oracle"
	"disttrack/internal/stream"
)

// TestRoundMessages replays every round-build and split message a site
// receives through enginetest.RunLaw's schedules (restore, grow and shrink
// included): each site keeps its own copy of the separators, built from the
// "seps" and "split-apply" words alone (decodeSeps when it holds none, as at
// the handoff or after joining; decodeKeep over its old copy after a merge;
// decodeSplit, which finds the split interval among the site's own
// separators), and its own round batches, thrIv and thrTot, derived from the
// m each "seps" carries (roundBatches); after every call every site's copy
// equals the coordinator's, and so do its batches. Each split's half counts
// are rebuilt from the "split-resp" and "split-counts" words alone, Σ_j a_j
// and Σ_j (n_j − a_j), and equal what the coordinator installs. Each split
// also passes the split-balance law's checks (TestSplitBalance): a
// "split-resp" has the length checkSplitResp names, each half holds between
// N/4 − k and 3N/4 + k of the interval's N items (counted in the exact site
// stores when the last "split-counts" is sent), and after every call no
// interval's coordinator count is at or over splitAt. Every report and
// relocation message is replayed from its words alone (reportReplay). The
// metered words of every round-build, split, report and relocation kind,
// "round-req" included, equal the summed lengths of the encodings the
// meter's tap saw, and a "round-req" reaches the tap.
// The concurrent leg's replay begins once it has been fed, so the gates on
// merges, checked halves and drift reports count the other legs alone, and
// a run of that leg alone (-run 'TestRoundMessages/Concurrent') has nothing
// to gate.
func TestRoundMessages(t *testing.T) {
	type replay struct {
		views   [][]uint64       // each site's separators, from messages alone
		batches [][2]int64       // each site's thrIv and thrTot, from messages alone
		base    map[string]int64 // meter words when the replay began
		sent    map[string]int64 // words of the encodings sent since

		// The split under way, from its messages alone: the interval named
		// by "split-req" (lo, hi its bounds), each site's n_j from
		// "split-resp", the separator from "split-apply" and the half
		// counts summed from "split-counts".
		splitIv  int
		lo, hi   uint64
		n        map[int]int64
		y        uint64
		c1, c2   int64
		answered int
		// A finished split whose halves the coordinator installs next, and
		// the "iv" reports metered when it finished.
		done   bool
		ivMsgs int64

		reports reportReplay // drift and relocation replies
	}
	kinds := append([]string{"round-req", "seps", "round-counts", "split-req", "split-resp", "split-apply", "split-counts"}, reportKinds...)
	var cur *replay
	var curTr *Tracker
	// Counted only on the legs replayed from their first message: the
	// concurrent leg's replay begins once it has been fed.
	widest, merges, splits, halves, replayed, roundReqs, drifts := 0, 0, 0, 0, 0, 0, 0
	balance := 0.5 // the smaller half's least share of its interval
	// checkHalves compares a finished split's rebuilt half counts with the
	// coordinator's. It runs at the next message or call at rest, before
	// which only an "iv" report changes an interval count: a split followed
	// by one is skipped.
	checkHalves := func(tb testing.TB, tr *Tracker) {
		r := cur
		if !r.done {
			return
		}
		r.done = false
		if tr.Meter().Kind("iv").Msgs != r.ivMsgs {
			return
		}
		p := tr.p
		i, ok := slices.BinarySearch(p.seps, r.y)
		if !ok {
			tb.Fatalf("|A|=%d: split separator %d is not among the coordinator's", tr.TrueTotal(), r.y)
		}
		if p.ivCount[i] != r.c1 || p.ivCount[i+1] != r.c2 {
			tb.Fatalf("|A|=%d: split at %d: the messages give halves %d and %d, the coordinator holds %d and %d",
				tr.TrueTotal(), r.y, r.c1, r.c2, p.ivCount[i], p.ivCount[i+1])
		}
		halves++
	}
	cfg := enginetest.Config{
		New: func(tb testing.TB) core.Tracker {
			tr, err := New(Config{K: 4, Eps: 0.1, Phis: []float64{0.5, 0.99}})
			if err != nil {
				tb.Fatal(err)
			}
			return tr
		},
		K:      4,
		Stream: enginetest.DistinctUniform,
	}
	enginetest.RunLaw(t, cfg, func(tb testing.TB, label string, ctr core.Tracker, _ *oracle.Counter) {
		tr := ctr.(*Tracker)
		p := tr.p
		if tr != curTr {
			// A fresh or restored tracker: its sites hold what it holds.
			if cur != nil {
				drifts += cur.reports.drifts
			}
			curTr = tr
			r := &replay{base: map[string]int64{}, sent: map[string]int64{}}
			for range p.sites {
				var v []uint64
				if !tr.Bootstrapping() {
					v = slices.Clone(p.seps)
				}
				r.views = append(r.views, v)
				r.batches = append(r.batches, [2]int64{p.thrIv, p.thrTot})
			}
			for _, kind := range kinds {
				r.base[kind] = tr.Meter().Kind(kind).Words
			}
			tr.Meter().SetTap(func(kind string, j int, words []uint64) {
				checkHalves(tb, tr)
				r.reports.check(tb, tr)
				for len(r.views) <= j {
					r.views = append(r.views, nil) // a site that joined
					r.batches = append(r.batches, [2]int64{})
				}
				switch kind {
				case "round-req":
					roundReqs++
				case "seps":
					var m int64
					if r.views[j] == nil {
						var err error
						if m, r.views[j], err = decodeSeps(words); err != nil {
							tb.Fatalf("|A|=%d: site %d: \"seps\" %#x: %v", tr.TrueTotal(), j, words, err)
						}
					} else {
						m, r.views[j] = decodeKeep(r.views[j], words)
						merges++
						widest = max(widest, len(words)-1)
					}
					thrIv, thrTot := p.roundBatches(m)
					r.batches[j] = [2]int64{thrIv, thrTot}
				case "split-req":
					if j == 0 { // a split polls the sites in order
						r.n, r.c1, r.c2, r.answered = map[int]int64{}, 0, 0, 0
					}
					r.splitIv = decodeSplitReq(words)
					r.lo, r.hi = p.ivBounds(r.splitIv)
				case "split-resp":
					r.n[j] = checkSplitResp(tb, fmt.Sprintf("|A|=%d: site %d", tr.TrueTotal(), j), words, r.lo, r.hi)
				case "split-apply":
					iv, y := decodeSplit(r.views[j], words)
					if iv != r.splitIv {
						tb.Fatalf("|A|=%d: site %d places split separator %d in interval %d, the request named %d",
							tr.TrueTotal(), j, y, iv, r.splitIv)
					}
					r.views[j] = slices.Insert(r.views[j], iv, y)
					r.y = y
				case "split-counts":
					a, err := decodeCount(words)
					if err != nil {
						tb.Fatal(err)
					}
					r.c1 += a
					r.c2 += r.n[j] - a
					if r.answered++; r.answered == len(p.sites) {
						r.done, r.ivMsgs = true, tr.Meter().Kind("iv").Msgs
						splits++
						var left, right int64
						for _, s := range p.sites {
							left += s.st.CountRange(r.lo, r.y)
							right += s.st.CountRange(r.y, r.hi)
						}
						if left != r.c1 || right != r.c2 {
							tb.Fatalf("|A|=%d: split at %d: the messages give halves %d and %d, the stores hold %d and %d",
								tr.TrueTotal(), r.y, r.c1, r.c2, left, right)
						}
						at := fmt.Sprintf("|A|=%d: split at %d", tr.TrueTotal(), r.y)
						balance = min(balance, checkSplitHalves(tb, at, left, right, float64(len(p.sites))))
					}
				default:
					r.reports.tap(tb, tr, kind, j, words)
				}
				r.sent[kind] += int64(max(1, len(words))) // a message carries at least its type
			})
			cur = r
			if label == "concurrent" {
				return // fed before the replay could begin
			}
			replayed++
		}
		checkHalves(tb, tr)
		cur.reports.check(tb, tr)
		checkResplit(tb, label, tr)
		cur.views = cur.views[:tr.K()] // a shrink drops the departed sites
		for j, v := range cur.views {
			if tr.Bootstrapping() {
				if v != nil {
					tb.Fatalf("%s: |A|=%d: site %d holds separators during the bootstrap", label, tr.TrueTotal(), j)
				}
				continue
			}
			if !slices.Equal(v, p.seps) {
				tb.Fatalf("%s: |A|=%d: site %d rebuilt %d separators from the messages, the coordinator holds %d (or they differ)",
					label, tr.TrueTotal(), j, len(v), len(p.seps))
			}
			if b := cur.batches[j]; b != [2]int64{p.thrIv, p.thrTot} {
				tb.Fatalf("%s: |A|=%d: site %d derived batches %v from the messages, the coordinator uses [%d %d]",
					label, tr.TrueTotal(), j, b, p.thrIv, p.thrTot)
			}
		}
		for _, kind := range kinds {
			if got := tr.Meter().Kind(kind).Words - cur.base[kind]; got != cur.sent[kind] {
				tb.Fatalf("%s: |A|=%d: metered %d %q words, the encodings sent are %d words long",
					label, tr.TrueTotal(), got, kind, cur.sent[kind])
			}
		}
	})
	if replayed == 0 {
		return // only the concurrent leg ran: nothing was replayed
	}
	drifts += cur.reports.drifts
	if roundReqs == 0 {
		t.Fatalf("no \"round-req\" reached the meter's tap")
	}
	if merges == 0 || widest < 2 {
		t.Fatalf("%d merge broadcasts, the widest %d words: the bitmap was never tested past one word", merges, widest)
	}
	if halves*4 < splits {
		t.Fatalf("%d of %d splits' half counts checked against the coordinator's: too few", halves, splits)
	}
	if drifts == 0 {
		t.Fatal("no drift report checked")
	}
	t.Logf("%d splits; the smaller half held at least %.3f of its interval; %d drift reports", splits, balance, drifts)
}

// reportReplay replays a tracker's reports ("iv", "tot", "drift") and
// relocations ("reloc-req", "reloc-resp", "probe-req", "probe-resp",
// "newM") from their words alone. Its tap decodes each message: an "iv"
// report names an interval whose batch at the site is exactly thrIv; a
// drift report names a quantile whose unreported pair at the site is the
// decoded one and is due; a "reloc-req" names the quantile the relocation
// moves, and each "reloc-resp" carries the site's count and its rank of
// that quantile's M; each "probe-resp" carries the site's count in the
// range its "probe-req" named; and a "newM" names the relocated quantile
// and the M the coordinator installed, whose total is the sum of the
// decoded counts, its rank the sum of the decoded ranks when M stays. Its
// check, run at the next message or call at rest, compares the reports with
// the coordinator: an "iv" report's interval count and a "tot" report's
// total estimate have risen by exactly thrIv and thrTot, and a drift
// report's quantile has gained exactly its pair (a relocation resets dL
// and dR only after its replies).
type reportReplay struct {
	drifts, relocs, ivs, tots, probes int // checked so far

	// Reports not yet checked: an "iv" report's interval and its count
	// when sent; a "tot" report's total estimate when sent; a drift
	// report's quantile, its pair and the quantile's dL and dR when sent.
	iv, tot, drift       bool
	ivAt                 int
	ivBase, totBase      int64
	driftQ               int
	dL, dR, baseL, baseR int64
	// The relocation under way: its quantile and that quantile's M when
	// it began, the replies so far (sites answer in order), and the range
	// of the probe under way.
	relocQ         int
	relocM         uint64
	relocL, relocT int64
	lo, hi         uint64
}

func (r *reportReplay) tap(tb testing.TB, tr *Tracker, kind string, j int, words []uint64) {
	tb.Helper()
	p := tr.p
	at := fmt.Sprintf("|A|=%d: site %d: %q", tr.TrueTotal(), j, kind)
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatalf("%s %#x: %v", at, words, err)
		}
	}
	switch kind {
	case "iv":
		iv, err := decodeIv(words, len(p.ivCount))
		must(err)
		if d := p.sites[j].ivDelta[iv]; d != p.thrIv {
			tb.Fatalf("%s names interval %d, where the site holds %d unreported arrivals, not thrIv = %d", at, iv, d, p.thrIv)
		}
		r.iv, r.ivAt, r.ivBase = true, iv, p.ivCount[iv]
	case "tot":
		must(decodeTot(words))
		r.tot, r.totBase = true, p.totEst
	case "drift":
		ib := p.driftIndexBits()
		qi, l, rr, err := decodeDrift(words, ib, len(p.qs))
		must(err)
		want := 2
		if ib > 0 {
			want = 3
		}
		if 6+ib+bits.Len64(uint64(l))+bits.Len64(uint64(rr)) <= 64 {
			want = 1
		}
		if len(words) != want {
			tb.Fatalf("%s (%d, %d) for quantile %d sent as %d words, want %d", at, l, rr, qi, len(words), want)
		}
		if d := p.sites[j].drift[qi]; d != [2]int64{l, rr} || absDrift(p.qs[qi].phi, d) < float64(p.thrIv) {
			tb.Fatalf("%s reports (%d, %d) for φ %g, whose unreported pair is %v (due %t)",
				at, l, rr, p.qs[qi].phi, d, absDrift(p.qs[qi].phi, d) >= float64(p.thrIv))
		}
		q := &p.qs[qi]
		r.drift, r.driftQ, r.dL, r.dR, r.baseL, r.baseR = true, qi, l, rr, q.dL, q.dR
	case "reloc-req":
		qi, err := decodeQuantile(words, len(p.qs))
		must(err)
		if j == 0 { // a relocation polls the sites in order
			r.relocQ, r.relocM, r.relocL, r.relocT = qi, p.qs[qi].m0, 0, 0
		} else if qi != r.relocQ {
			tb.Fatalf("%s names quantile %d inside the relocation of %d", at, qi, r.relocQ)
		}
	case "reloc-resp":
		rank, n := decodePair(tb, words)
		if n != tr.SiteCount(j) {
			tb.Fatalf("%s reports count %d, it holds %d", at, n, tr.SiteCount(j))
		}
		if want := p.sites[j].st.RankOf(r.relocM); rank != want {
			tb.Fatalf("%s reports rank %d, its rank of the requested M %d is %d", at, rank, r.relocM, want)
		}
		r.relocL += rank
		r.relocT += n
	case "probe-req":
		lo, hi, err := decodeRange(words)
		must(err)
		r.lo, r.hi = lo, hi
	case "probe-resp":
		c, err := decodeCount(words)
		must(err)
		if want := p.sites[j].st.CountRange(r.lo, r.hi); c != want {
			tb.Fatalf("%s reports %d in [%d, %d), it holds %d", at, c, r.lo, r.hi, want)
		}
		r.probes++
	case "newM":
		qi, m0, err := decodeNewM(words, len(p.qs))
		must(err)
		q := &p.qs[qi]
		if qi != r.relocQ || m0 != q.m0 {
			tb.Fatalf("%s installs M %d for quantile %d; the relocation moved quantile %d, whose M is %d", at, m0, qi, r.relocQ, p.qs[r.relocQ].m0)
		}
		if j > 0 {
			return
		}
		if q.tBase != r.relocT || q.dL != 0 || q.dR != 0 || (q.m0 == r.relocM && q.lBase != r.relocL) {
			tb.Fatalf("%s: a relocation's replies give rank %d and total %d; quantile %d holds rank %d, total %d, dL %d, dR %d",
				at, r.relocL, r.relocT, qi, q.lBase, q.tBase, q.dL, q.dR)
		}
		r.relocs++
	}
}

func (r *reportReplay) check(tb testing.TB, tr *Tracker) {
	tb.Helper()
	p := tr.p
	if r.iv {
		r.iv = false
		if got := p.ivCount[r.ivAt]; got != r.ivBase+p.thrIv {
			tb.Fatalf("|A|=%d: \"iv\" report for interval %d: the coordinator's count went %d → %d, want +%d",
				tr.TrueTotal(), r.ivAt, r.ivBase, got, p.thrIv)
		}
		r.ivs++
	}
	if r.tot {
		r.tot = false
		if p.totEst != r.totBase+p.thrTot {
			tb.Fatalf("|A|=%d: \"tot\" report: the coordinator's total went %d → %d, want +%d",
				tr.TrueTotal(), r.totBase, p.totEst, p.thrTot)
		}
		r.tots++
	}
	if r.drift {
		r.drift = false
		q := &p.qs[r.driftQ]
		if q.dL != r.baseL+r.dL || q.dR != r.baseR+r.dR {
			tb.Fatalf("|A|=%d: drift report (%d, %d) for φ %g: the coordinator's dL, dR went %d, %d → %d, %d",
				tr.TrueTotal(), r.dL, r.dR, q.phi, r.baseL, r.baseR, q.dL, q.dR)
		}
		r.drifts++
	}
}

// reportKinds are the kinds reportReplay decodes.
var reportKinds = []string{"iv", "tot", "drift", "reloc-req", "reloc-resp", "probe-req", "probe-resp", "newM"}

// TestReportMessages replays every report and relocation message of a
// tracker of three quantiles fed per item and in batches of 64 through
// reportReplay, on a stream whose mass moves to a disjoint range a third of
// the way in (driftStream), so every M relocates; the metered words of each
// kind equal the summed lengths of the encodings the tap saw.
func TestReportMessages(t *testing.T) {
	for _, batch := range []int{1, 64} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			tr, err := New(Config{K: 4, Eps: 0.05, Phis: []float64{0.1, 0.5, 0.99}})
			if err != nil {
				t.Fatal(err)
			}
			var r reportReplay
			sent := map[string]int64{}
			tr.Meter().SetTap(func(kind string, j int, words []uint64) {
				r.check(t, tr)
				r.tap(t, tr, kind, j, words)
				sent[kind] += int64(max(1, len(words))) // a message carries at least its type
			})
			var xs []uint64
			g := driftStream(60000, 78)
			for x, ok := g.Next(); ok; x, ok = g.Next() {
				xs = append(xs, x)
			}
			for i := 0; i < len(xs); i += batch {
				tr.FeedLocalBatch((i/batch)%4, xs[i:min(i+batch, len(xs))])
				r.check(t, tr)
			}
			for _, kind := range reportKinds {
				if got := tr.Meter().Kind(kind).Words; got != sent[kind] {
					t.Fatalf("metered %d %q words, the encodings sent are %d words long", got, kind, sent[kind])
				}
			}
			if r.drifts == 0 || r.relocs == 0 || r.ivs == 0 || r.tots == 0 || r.probes == 0 {
				t.Fatalf("%d drift, %d iv and %d tot reports, %d relocations and %d probe replies checked: too few",
					r.drifts, r.ivs, r.tots, r.relocs, r.probes)
			}
			t.Logf("%d drift, %d iv and %d tot reports, %d relocations, %d probe replies", r.drifts, r.ivs, r.tots, r.relocs, r.probes)
		})
	}
}

// decodePair decodes a "drift" or "reloc-resp" message and fails unless it
// is one word exactly when both counts fit beside the 6-bit width header.
func decodePair(tb testing.TB, words []uint64) (a, b int64) {
	tb.Helper()
	a, b, err := decodeCounts(words)
	if err != nil {
		tb.Fatal(err)
	}
	want := 2
	if 6+bits.Len64(uint64(a))+bits.Len64(uint64(b)) <= 64 {
		want = 1
	}
	if len(words) != want {
		tb.Fatalf("counts %d and %d sent as %d words, want %d", a, b, len(words), want)
	}
	return a, b
}

// TestMergeIntervals pins mergeIntervals on hand-made counts: runs merge
// while they stay within the limit, and an interval over it stays alone.
func TestMergeIntervals(t *testing.T) {
	for _, tc := range []struct {
		counts []int64
		limit  int64
		keep   []bool
		merged []int64
	}{
		{[]int64{3, 3, 3, 3}, 6, []bool{false, true, false}, []int64{6, 6}},
		{[]int64{2, 9, 2, 2, 1}, 6, []bool{true, true, false, false}, []int64{2, 9, 5}},
		{[]int64{5, 1, 5}, 6, []bool{false, true}, []int64{6, 5}},
		{[]int64{1, 1, 1, 1}, 10, []bool{false, false, false}, []int64{4}},
		{[]int64{7}, 6, []bool{}, []int64{7}},
	} {
		keep, merged := mergeIntervals(tc.counts, tc.limit)
		if !slices.Equal(keep, tc.keep) || !slices.Equal(merged, tc.merged) {
			t.Errorf("mergeIntervals(%v, %d) = %v, %v; want %v, %v", tc.counts, tc.limit, keep, merged, tc.keep, tc.merged)
		}
	}
}

// TestRoundCountsFromRanks is allq's TestRankPerBoundaryCounts for the
// quantile round: the interval counts roundCounts decodes from the sites'
// rank replies equal the per-interval CountRange values
// (IntervalTrueCounts), with exact sites and with sketch sites, whose rank
// differences are clamped at zero as CountRange clamps them.
func TestRoundCountsFromRanks(t *testing.T) {
	for _, sketch := range []bool{false, true} {
		tr, err := New(Config{K: 4, Eps: 0.05, Phis: []float64{0.5}, Sketch: sketch})
		if err != nil {
			t.Fatal(err)
		}
		g := stream.Perturb(stream.Uniform(1<<20, 30000, 73))
		for i := 0; ; i++ {
			x, ok := g.Next()
			if !ok {
				break
			}
			tr.Feed(i%4, x)
		}
		got, want := tr.p.roundCounts(tr.K()), tr.IntervalTrueCounts()
		if !slices.Equal(got, want) {
			t.Fatalf("sketch %t: counts from rank replies %v, from range counts %v", sketch, got, want)
		}
		if len(want) < 32 {
			t.Fatalf("sketch %t: %d intervals check nothing", sketch, len(want))
		}
	}
}
