package quantile

import (
	"slices"
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/core/engine/enginetest"
	"disttrack/internal/oracle"
)

// TestRoundMessages replays every round-build message a site receives
// through enginetest.RunLaw's schedules (restore, grow and shrink included):
// each site keeps its own copy of the separators, built from the "seps" and
// "split-apply" words alone (decodeSeps when it holds none, as at the handoff
// or after joining; decodeKeep over its old copy after a merge; decodeSplit),
// and after every call every site's copy equals the coordinator's. The
// metered "seps" and "round-counts" words equal the summed lengths of the
// encodings sent.
func TestRoundMessages(t *testing.T) {
	type replay struct {
		views [][]uint64       // each site's separators, from messages alone
		base  map[string]int64 // meter words when the replay began
		sent  map[string]int64 // words of the encodings sent since
	}
	kinds := []string{"seps", "round-counts"}
	var cur *replay
	var curTr *Tracker
	widest, merges := 0, 0
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
				case "split-apply":
					iv, y := decodeSplit(words)
					r.views[j] = slices.Insert(r.views[j], iv, y)
				}
				r.sent[kind] += int64(max(1, len(words))) // a message carries at least its type
			}
			cur = r
			if label == "concurrent" {
				return // fed before the replay could begin
			}
		}
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
