package allq

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/core/engine/enginetest"
	"disttrack/internal/oracle"
	"disttrack/internal/stream"
)

// mergeWatch checks every round build of one tracker at the moment its tree
// is broadcast, through the policy's tap, so builds inside a batch and on
// the concurrent schedule are checked too. A "round-req" opens a merged
// round while the old tree still stands; the first "rb-tree" after it (or
// after the handoff's cut) finds the fresh tree installed with its round's
// parameters, before splitFull runs.
type mergeWatch struct {
	tb     testing.TB
	tr     *Tracker
	counts map[string]int // round builds checked, by cause, and full leaves
	failed bool

	rounds, k, heightRounds int
	cause                   string   // of the round under way
	old                     []uint64 // its old leaf boundaries
	sampled                 int64    // "rb-seps" + "rb-req" words when it opened
	full                    [][2]uint64
}

func (w *mergeWatch) errorf(format string, args ...any) {
	if !w.failed {
		w.failed = true
		w.tb.Errorf("|A|=%d: "+format, append([]any{w.tr.TrueTotal()}, args...)...)
	}
}

func (w *mergeWatch) sampledWords() int64 {
	m := w.tr.Meter()
	return m.Kind("rb-seps").Words + m.Kind("rb-req").Words
}

func (w *mergeWatch) tap(kind string, j int, words []uint64) {
	p := w.tr.p
	switch {
	case kind == "round-req" && j == 0:
		w.cause = "doubling"
		switch {
		case p.heightRebuilds > w.heightRounds:
			w.cause = "height"
		case p.cfg.K > w.k:
			w.cause = "grow"
		case p.cfg.K < w.k:
			w.cause = "shrink"
		}
		w.heightRounds, w.k = p.heightRebuilds, p.cfg.K
		w.old = leafBounds(p.root)
		w.sampled = w.sampledWords()
		if len(w.full) != 0 {
			w.errorf("full leaves %v of the last round were never split", w.full)
		}
	case kind == "rb-req" && j == 0:
		w.full = slices.DeleteFunc(w.full, func(iv [2]uint64) bool { return words[0] <= iv[0] && iv[1] <= words[1] })
	case kind == "rb-tree" && j == 0 && p.rounds != w.rounds:
		w.rounds = p.rounds
		if w.cause == "" {
			w.cause, w.old = "first", nil
		}
		w.check()
		w.counts[w.cause]++
		w.cause = ""
	}
}

// check asserts the merge law on the tree just installed: every node's s is
// its exact count (the sites' summed counts, GK estimates with sketch
// sites; at the handoff the bootstrap list's), every split is an old leaf
// boundary (at the handoff a bootstrap key), every fresh leaf is under the
// round's split trigger unless it is one old leaf (at the handoff, copies
// of one key), which splitFull must split before anything else happens,
// and no site was asked for samples. With exact sites it also checks
// mergeRec's cut: each child of a merged node holds within half the
// straddled old leaf's count of half the node's.
func (w *mergeWatch) check() {
	p := w.tr.p
	var oldCount []int64 // exact count of each old leaf
	if w.cause != "first" && !p.cfg.Sketch {
		for i := 1; i < len(w.old); i++ {
			var c int64
			for _, s := range p.sites {
				c += s.st.CountRange(w.old[i-1], w.old[i])
			}
			oldCount = append(oldCount, c)
		}
	}
	if got := w.sampledWords(); w.cause == "first" && got != 0 || w.cause != "first" && got != w.sampled {
		w.errorf("%s round: %d words of \"rb-seps\" and \"rb-req\" metered by the round build", w.cause, got-w.sampled)
	}
	for _, u := range collectNodes(p.root) {
		var c int64
		if w.cause == "first" {
			c = p.boot.RankOf(u.hi) - p.boot.RankOf(u.lo)
		} else {
			for _, s := range p.sites {
				c += s.st.CountRange(u.lo, u.hi)
			}
		}
		if u.s != c {
			w.errorf("%s round (m %d): node [%d, %d) has s %d, exact count %d", w.cause, p.m, u.lo, u.hi, u.s, c)
		}
		if !u.isLeaf() {
			keys := w.old
			if w.cause == "first" {
				keys = p.boot.Keys()
			}
			if _, ok := slices.BinarySearch(keys, u.split); !ok {
				w.errorf("%s round: split %d is not an old leaf boundary", w.cause, u.split)
			}
			if oldCount != nil {
				w.checkCut(u, oldCount)
			}
			continue
		}
		if u.s < p.leafSplitAt {
			continue
		}
		i, _ := slices.BinarySearch(w.old, u.lo)
		oneOld := i+1 < len(w.old) && w.old[i] == u.lo && w.old[i+1] == u.hi
		if w.cause == "first" {
			keys, lo := p.boot.Keys(), p.boot.RankOf(u.lo)
			oneOld = keys[lo] == keys[lo+u.s-1] // one value: the cut cannot split ties
		}
		if !oneOld {
			w.errorf("%s round (m %d, h %d): fresh leaf [%d, %d) holds %d, not under its split trigger %d",
				w.cause, p.m, p.h, u.lo, u.hi, u.s, p.leafSplitAt)
		}
		w.full = append(w.full, [2]uint64{u.lo, u.hi})
		w.counts["full leaves"]++
	}
}

// checkCut asserts |2·s_left − s| ≤ the count of the old leaf that holds
// u's weighted median (the first whose end brings the running count to at
// least s/2): mergeRec cuts at whichever side of that leaf leaves the
// halves closer. Cutting always past it, as buildRec cuts samples, may miss
// by up to twice that count and builds taller trees.
func (w *mergeWatch) checkCut(u *node, oldCount []int64) {
	i, _ := slices.BinarySearch(w.old, u.lo)
	var acc int64
	for ; i < len(oldCount); i++ {
		if acc += oldCount[i]; 2*acc >= u.s {
			break
		}
	}
	if i == len(oldCount) {
		w.errorf("%s round: node [%d, %d) of s %d has no median leaf", w.cause, u.lo, u.hi, u.s)
		return
	}
	if d := 2*u.left.s - u.s; d > oldCount[i] || -d > oldCount[i] {
		w.errorf("%s round: node [%d, %d) of s %d splits at %d into %d and %d, off the median by more than half the straddled old leaf's %d",
			w.cause, u.lo, u.hi, u.s, u.split, u.left.s, u.right.s, oldCount[i])
	}
}

// TestRoundMergeLaw checks newRound's and OnBootDone's derivation
// (docs/architecture.md, "allq rounds merge, not resample") after every
// round build through the engine's law schedules (enginetest.RunLaw: Feed
// and FeedLocalBatch at B ∈ {1, 16, 512}, round robin and one-site bursts,
// a checkpoint restore, a Reconfigure grow and shrink, and one goroutine
// per site under -race), in both store modes and on a Zipf stream perturbed
// in ascending tie order, whose hot values' sorted runs grow the tree past
// its height cap. Each tracker's tap is set when it is made,
// so the concurrent schedule is checked from its first message. After each
// call, no fresh leaf that reached its trigger is left unsplit.
func TestRoundMergeLaw(t *testing.T) {
	for _, mode := range []struct {
		name   string
		sketch bool
		stream enginetest.Stream
	}{
		{"exact", false, enginetest.DistinctUniform},
		{"sketch", true, enginetest.DistinctUniform},
		{"zipf", false, enginetest.AscendingTiesZipf},
	} {
		t.Run(mode.name, func(t *testing.T) {
			watches := map[*Tracker]*mergeWatch{}
			legs := map[string]map[string]int{} // round builds by cause, by schedule
			cfg := enginetest.Config{
				New: func(tb testing.TB) core.Tracker {
					tr, err := New(Config{K: 4, Eps: 0.1, Sketch: mode.sketch})
					if err != nil {
						tb.Fatal(err)
					}
					if legs[tb.Name()] == nil {
						legs[tb.Name()] = map[string]int{}
					}
					w := &mergeWatch{tb: tb, tr: tr, counts: legs[tb.Name()], k: 4}
					tr.Meter().SetTap(w.tap)
					watches[tr] = w
					return tr
				},
				K:      4,
				Stream: mode.stream,
			}
			enginetest.RunLaw(t, cfg, func(tb testing.TB, label string, ctr core.Tracker, _ *oracle.Counter) {
				w := watches[ctr.(*Tracker)]
				if w.rounds == 0 { // restored: the rounds so far are not this watch's
					w.rounds, w.heightRounds = w.tr.p.rounds, w.tr.p.heightRebuilds
				}
				if len(w.full) != 0 {
					tb.Fatalf("%s: |A|=%d: full leaves %v of the last round were never split", label, w.tr.TrueTotal(), w.full)
				}
				if w.failed {
					tb.FailNow()
				}
			})
			var summary []string
			height := 0
			for leg, counts := range legs {
				want := []string{"first", "doubling"}
				if !strings.HasSuffix(leg, "/Concurrent") {
					want = append(want, "grow", "shrink")
				}
				for _, cause := range want {
					if counts[cause] == 0 {
						t.Errorf("%s: no %s round checked (%v)", leg, cause, counts)
					}
				}
				height += counts["height"]
				summary = append(summary, fmt.Sprintf("%s %v", leg[strings.LastIndex(leg, "/")+1:], counts))
			}
			if mode.stream == enginetest.AscendingTiesZipf && len(legs) > 1 && height == 0 {
				t.Errorf("no round forced by the height cap checked")
			}
			slices.Sort(summary)
			t.Logf("round builds checked: %s", strings.Join(summary, "; "))
		})
	}
}

// TestRoundSplitsFullLeaves checks splitFull, which the law schedules rarely
// reach: a Reconfigure soon after a round opened keeps old leaves that
// filled up in it, at a trigger barely higher. Clones of one tracker, taken
// by checkpoint every 13 arrivals of a Zipf stream perturbed in ascending
// tie order (its sorted runs fill leaves within a round), each grow to
// two sites under a mergeWatch until three rounds have split a full leaf.
func TestRoundSplitsFullLeaves(t *testing.T) {
	cfg := Config{K: 1, Eps: 0.05}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := stream.PerturbTies(stream.Zipf(1<<20, 30000, 1.2, 5), stream.TiesAscending)
	counts := map[string]int{}
	for i := 0; counts["full leaves"] < 3; i++ {
		x, ok := g.Next()
		if !ok {
			t.Fatalf("%d arrivals: %d rounds split a full leaf at once (%v)", i, counts["full leaves"], counts)
		}
		tr.Feed(0, x)
		if tr.Bootstrapping() || i%13 != 0 {
			continue
		}
		var buf bytes.Buffer
		if err := tr.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Restore(&buf); err != nil {
			t.Fatal(err)
		}
		w := &mergeWatch{tb: t, tr: c, counts: counts, k: 1, rounds: c.Rounds()}
		c.Meter().SetTap(w.tap)
		splits, full := c.LeafSplits(), counts["full leaves"]
		if err := c.Reconfigure(2); err != nil {
			t.Fatal(err)
		}
		if len(w.full) != 0 || w.failed {
			t.Fatalf("|A|=%d: full leaves %v left unsplit", c.TrueTotal(), w.full)
		}
		if got, want := c.LeafSplits()-splits, counts["full leaves"]-full; got < want {
			t.Fatalf("|A|=%d: %d leaf splits for %d full leaves", c.TrueTotal(), got, want)
		}
	}
	t.Logf("%v", counts)
}
