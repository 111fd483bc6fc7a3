package quantile

import (
	"fmt"
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
// separators), and after every call every site's copy equals the
// coordinator's. Each split's half counts are rebuilt from the "split-resp"
// and "split-counts" words alone, Σ_j a_j and Σ_j (n_j − a_j), and equal
// what the coordinator installs. Each split also passes the split-balance
// law's checks (TestSplitBalance): a "split-resp" is 2 words from a site
// holding items in the interval and 1 word otherwise, each half holds
// between N/4 − k and 3N/4 + k of the interval's N items (counted in the
// exact site stores when the last "split-counts" is sent), and after every
// call no interval's coordinator count is at or over splitAt. The metered
// words of every round-build and split kind, "round-req" included, equal
// the summed lengths of the encodings the meter's tap saw, and a
// "round-req" reaches the tap. The
// concurrent leg's replay begins once it has been fed, so the gates on
// merges and checked halves count the other legs alone, and a run of that
// leg alone (-run 'TestRoundMessages/Concurrent') has nothing to gate.
func TestRoundMessages(t *testing.T) {
	type replay struct {
		views [][]uint64       // each site's separators, from messages alone
		base  map[string]int64 // meter words when the replay began
		sent  map[string]int64 // words of the encodings sent since

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
	}
	kinds := []string{"round-req", "seps", "round-counts", "split-req", "split-resp", "split-apply", "split-counts"}
	var cur *replay
	var curTr *Tracker
	// Counted only on the legs replayed from their first message: the
	// concurrent leg's replay begins once it has been fed.
	widest, merges, splits, halves, replayed, roundReqs := 0, 0, 0, 0, 0, 0
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
			curTr = tr
			r := &replay{base: map[string]int64{}, sent: map[string]int64{}}
			for range p.sites {
				var v []uint64
				if !tr.Bootstrapping() {
					v = slices.Clone(p.seps)
				}
				r.views = append(r.views, v)
			}
			for _, kind := range kinds {
				r.base[kind] = tr.Meter().Kind(kind).Words
			}
			tr.Meter().SetTap(func(kind string, j int, words []uint64) {
				checkHalves(tb, tr)
				for len(r.views) <= j {
					r.views = append(r.views, nil) // a site that joined
				}
				switch kind {
				case "round-req":
					roundReqs++
				case "seps":
					if r.views[j] == nil {
						r.views[j] = decodeSeps(words)
					} else {
						r.views[j] = decodeKeep(r.views[j], words)
						merges++
						widest = max(widest, len(words))
					}
				case "split-req":
					if j == 0 { // a split polls the sites in order
						r.n, r.c1, r.c2, r.answered = map[int]int64{}, 0, 0, 0
					}
					r.splitIv = decodeSplitReq(words)
					r.lo, r.hi = p.ivBounds(r.splitIv)
				case "split-resp":
					var med []uint64
					med, r.n[j] = decodeSplitResp(words)
					if held := min(r.n[j], 1); int64(len(med)) != held || int64(len(words)) != 1+held {
						tb.Fatalf("|A|=%d: site %d holds %d items in the split interval and answers %d words",
							tr.TrueTotal(), j, r.n[j], len(words))
					}
				case "split-apply":
					iv, y := decodeSplit(r.views[j], words)
					if iv != r.splitIv {
						tb.Fatalf("|A|=%d: site %d places split separator %d in interval %d, the request named %d",
							tr.TrueTotal(), j, y, iv, r.splitIv)
					}
					r.views[j] = slices.Insert(r.views[j], iv, y)
					r.y = y
				case "split-counts":
					a := decodeSplitCounts(words)
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
	if roundReqs == 0 {
		t.Fatalf("no \"round-req\" reached the meter's tap")
	}
	if merges == 0 || widest < 2 {
		t.Fatalf("%d merge broadcasts, the widest %d words: the bitmap was never tested past one word", merges, widest)
	}
	if halves*4 < splits {
		t.Fatalf("%d of %d splits' half counts checked against the coordinator's: too few", halves, splits)
	}
	t.Logf("%d splits; the smaller half held at least %.3f of its interval", splits, balance)
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
