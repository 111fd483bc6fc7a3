package quantile

import (
	"slices"
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/core/engine/enginetest"
	"disttrack/internal/oracle"
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
// what the coordinator installs. The metered words of every round-build and
// split kind equal the summed lengths of the encodings sent.
func TestRoundMessages(t *testing.T) {
	type replay struct {
		views [][]uint64       // each site's separators, from messages alone
		base  map[string]int64 // meter words when the replay began
		sent  map[string]int64 // words of the encodings sent since

		// The split under way, from its messages alone: the interval named
		// by "split-req", each site's n_j from "split-resp", the separator
		// from "split-apply" and the half counts summed from "split-counts".
		splitIv  int
		n        map[int]int64
		y        uint64
		c1, c2   int64
		answered int
		// A finished split whose halves the coordinator installs next, and
		// the "iv" reports metered when it finished.
		done   bool
		ivMsgs int64
	}
	kinds := []string{"seps", "round-counts", "split-req", "split-resp", "split-apply", "split-counts"}
	var cur *replay
	var curTr *Tracker
	widest, merges, splits, halves := 0, 0, 0, 0
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
		K:        4,
		Distinct: true,
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
			p.tap = func(kind string, j int, words []uint64) {
				checkHalves(tb, tr)
				for len(r.views) <= j {
					r.views = append(r.views, nil) // a site that joined
				}
				switch kind {
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
				case "split-resp":
					_, r.n[j] = decodeSplitResp(words)
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
					}
				}
				r.sent[kind] += int64(max(1, len(words))) // a message carries at least its type
			}
			cur = r
			if label == "concurrent" {
				return // fed before the replay could begin
			}
		}
		checkHalves(tb, tr)
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
	if merges == 0 || widest < 2 {
		t.Fatalf("%d merge broadcasts, the widest %d words: the bitmap was never tested past one word", merges, widest)
	}
	if halves*4 < splits {
		t.Fatalf("%d of %d splits' half counts checked against the coordinator's: too few", halves, splits)
	}
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
