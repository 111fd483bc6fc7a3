package allq

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/core/engine/enginetest"
	"disttrack/internal/oracle"
)

// lawConfig is allq's law list on one configuration of its law tests, and
// what the laws saw on the last pass of each schedule. The law schedules
// (enginetest.LawList: Feed and FeedLocalBatch at B ∈ {1, 16, 512, 4096},
// round robin, one-site bursts and random chunks, a checkpoint restore, a
// Reconfigure grow and shrink, and one goroutine per site under -race) feed
// each configuration once per schedule for every law of its list:
//
//   - "delta", the delta law (checkDeltaLaw; with sketch sites the deltas'
//     range only), after every call;
//   - "eps", the ε-law (checkEpsLaw), every epsLawStride-th call on the
//     per-item schedules and after every call on the others;
//   - "merge", the round-merge law (mergeWatch) on every round build, and
//     after every call no fresh leaf that reached its trigger is left
//     unsplit;
//   - "split", the split-balance law (cutWatch) on every leaf cut, sketch
//     cuts against the truth on the schedules of one arrival a call, and
//     after every call no leaf is over its split trigger, on the streams
//     without the ends: copies of math.MaxUint64 can defeat the cut of the
//     last leaf (its weighted median of medians lands on its hi) and leave
//     it over its trigger;
//   - "replay", the message replay (replay): after every call every site's
//     tree, height cap and node batch, rebuilt from the words alone, are the
//     coordinator's, and the metered words are the encodings sent.
//
// Each tree-building law follows its tracker's messages from the first, the
// concurrent schedule's included.
type lawConfig struct {
	sketch, ends bool
	stream       enginetest.Stream

	laws *enginetest.LawList // made on first use (lawsOf)
	seen map[string]*seen    // by schedule, its last pass
}

// seen is what the laws saw on one pass of a schedule, for the law tests'
// whole-run gates.
type seen struct {
	maxThr                int64          // the largest node batch the delta law saw
	rankWorst, quantWorst float64        // the ε-law's largest errors
	legs                  map[string]int // round builds checked, by cause
	cuts                  []*cutWatch
	replays               []*replay
}

// on returns what the laws saw on the pass tb feeds.
func (c *lawConfig) on(tb testing.TB) *seen {
	sched := enginetest.ScheduleOf(tb)
	if c.seen[sched] == nil {
		c.seen[sched] = &seen{legs: map[string]int{}}
	}
	return c.seen[sched]
}

// lawConfigs are the configurations of the law tests, by name: k = 4,
// ε = 0.1, both store modes, on distinct uniform streams with and without
// the universe's ends (0 and math.MaxUint64, 1% each) and, with exact
// sites, on a Zipf stream perturbed in ascending tie order, whose hot
// values' sorted runs grow the tree past its height cap. Every law test
// shares them.
var lawConfigs = map[string]*lawConfig{
	"exact":       {stream: enginetest.DistinctUniform},
	"sketch":      {stream: enginetest.DistinctUniform, sketch: true},
	"exact-ends":  {stream: enginetest.DistinctUniform, ends: true},
	"sketch-ends": {stream: enginetest.DistinctUniform, sketch: true, ends: true},
	"zipf":        {stream: enginetest.AscendingTiesZipf},
}

// lawsOf returns the configuration name of the law tests, its law list made.
func lawsOf(name string) *lawConfig {
	c := lawConfigs[name]
	if c.laws != nil {
		return c
	}
	c.seen = map[string]*seen{}
	cfg := enginetest.Config{
		New: func(tb testing.TB) core.Tracker {
			tr, err := New(Config{K: 4, Eps: 0.1, Sketch: c.sketch})
			if err != nil {
				tb.Fatal(err)
			}
			return tr
		},
		K:      4,
		Stream: c.stream,
		Ends:   c.ends,
	}
	delta := enginetest.Invariant(func(tb testing.TB, label string, ctr core.Tracker, truth *oracle.Counter) {
		tr := ctr.(*Tracker)
		if c.sketch {
			truth = nil
		}
		checkDeltaLaw(tb, label, tr, truth)
		if s := c.on(tb); !tr.Bootstrapping() {
			s.maxThr = max(s.maxThr, tr.p.thrNode)
		}
	})
	eps := enginetest.Invariant(func(tb testing.TB, label string, tr core.Tracker, truth *oracle.Counter) {
		r, q := checkEpsLaw(tb, label, tr.(*Tracker), truth)
		s := c.on(tb)
		s.rankWorst, s.quantWorst = max(s.rankWorst, r), max(s.quantWorst, q)
	})
	merge := func(tb testing.TB, ctr core.Tracker) enginetest.Watch {
		tr := ctr.(*Tracker)
		w := &mergeWatch{tb: tb, tr: tr, counts: c.on(tb).legs, k: tr.K()}
		return enginetest.Watch{Tap: w.tap, Check: w.atRest}
	}
	split := func(tb testing.TB, ctr core.Tracker) enginetest.Watch {
		var lag int64 // sketch cuts are checked against the truth on one arrival a call
		if sched := enginetest.ScheduleOf(tb); sched == "feed" || sched == "B1" {
			lag = 1
		}
		w := newCutWatch(tb, ctr.(*Tracker), lag)
		s := c.on(tb)
		s.cuts = append(s.cuts, w)
		return enginetest.Watch{Tap: w.tap, Check: w.atRest}
	}
	rep := func(tb testing.TB, ctr core.Tracker) enginetest.Watch {
		r := newReplay(tb, ctr.(*Tracker))
		s := c.on(tb)
		s.replays = append(s.replays, r)
		return enginetest.Watch{Tap: r.tap, Check: r.atRest}
	}
	laws := []enginetest.NamedLaw{
		{Name: "delta", Law: delta},
		{Name: "eps", Law: enginetest.Sparse(eps, epsLawStride, "feed", "B1")},
		{Name: "merge", Law: merge},
		{Name: "replay", Law: rep},
	}
	if !c.ends {
		laws = append(laws, enginetest.NamedLaw{Name: "split", Law: split})
	}
	c.laws = enginetest.NewLawList(cfg, laws...)
	c.laws.Fresh = func(sched string) { delete(c.seen, sched) }
	return c
}

// TestDeltaLaw checks the delta law (lawConfig) on every configuration of
// the law tests, and that every schedule ran three rounds with node reports
// (32,000 items are over three doublings past the 2,560-item bootstrap),
// some of which batched four arrivals.
func TestDeltaLaw(t *testing.T) {
	for _, name := range []string{"exact", "sketch", "exact-ends", "sketch-ends", "zipf"} {
		t.Run(name, func(t *testing.T) {
			c := lawsOf(name)
			for _, ctr := range c.laws.Run(t, "delta") {
				if tr := ctr.(*Tracker); tr.Rounds() < 3 || tr.Meter().Kind("nd").Msgs == 0 {
					t.Fatalf("%d rounds, %d node reports: too short a stream", tr.Rounds(), tr.Meter().Kind("nd").Msgs)
				}
			}
			var maxThr int64
			for _, s := range c.seen {
				maxThr = max(maxThr, s.maxThr)
			}
			if maxThr < 4 {
				t.Fatalf("largest node batch %d: the delta law was never tested on batched reports", maxThr)
			}
		})
	}
}

// TestEpsLaw checks the ε-law (lawConfig) on every configuration of the law
// tests.
func TestEpsLaw(t *testing.T) {
	for _, name := range []string{"exact", "sketch", "exact-ends", "sketch-ends", "zipf"} {
		t.Run(name, func(t *testing.T) {
			c := lawsOf(name)
			for _, ctr := range c.laws.Run(t, "eps") {
				if tr := ctr.(*Tracker); tr.Rounds() < 3 {
					t.Fatalf("%d rounds: too short a stream", tr.Rounds())
				}
			}
			var rankWorst, quantWorst float64
			for _, s := range c.seen {
				rankWorst, quantWorst = max(rankWorst, s.rankWorst), max(quantWorst, s.quantWorst)
			}
			t.Logf("largest Rank error %.4f of its budget, largest Quantile error %.4f·ε|A|", rankWorst, quantWorst)
		})
	}
}

// TestRoundMergeLaw checks the round-merge law (lawConfig) on every
// configuration of the law tests, and that every schedule checked a first
// and a doubling round, and but for the concurrent one a grow and a shrink
// round, and the Zipf stream a round forced by the height cap.
func TestRoundMergeLaw(t *testing.T) {
	for _, name := range []string{"exact", "sketch", "zipf", "exact-ends", "sketch-ends"} {
		t.Run(name, func(t *testing.T) {
			c := lawsOf(name)
			c.laws.Run(t, "merge")
			var summary []string
			heights := 0
			for sched, s := range c.seen {
				want := []string{"first", "doubling"}
				if sched != "Concurrent" {
					want = append(want, "grow", "shrink")
				}
				for _, cause := range want {
					if s.legs[cause] == 0 {
						t.Errorf("%s: no %s round checked (%v)", sched, cause, s.legs)
					}
				}
				heights += s.legs["height"]
				summary = append(summary, fmt.Sprintf("%s %v", sched, s.legs))
			}
			if c.stream == enginetest.AscendingTiesZipf && len(c.seen) > 1 && heights == 0 {
				t.Errorf("no round forced by the height cap checked")
			}
			slices.Sort(summary)
			t.Logf("round builds checked: %s", strings.Join(summary, "; "))
		})
	}
}

// runSplitLaw checks the split-balance law (lawConfig) on the law
// configuration name as subtests of t, and that 30 leaf cuts were checked,
// with sketch sites some against the truth where a schedule fed one arrival
// a call.
func runSplitLaw(t *testing.T, name string) {
	c := lawsOf(name)
	if len(c.laws.Run(t, "split")) == 0 {
		return // -run chose the by-value leg alone
	}
	var n, sketchCuts int
	worst, truthCut := 0.5, false
	for _, s := range c.seen {
		for _, w := range s.cuts {
			n += w.cuts
			sketchCuts += w.sketchCuts
			worst = min(worst, w.worst)
			truthCut = truthCut || w.lag > 0
		}
	}
	if n < 30 || c.sketch && sketchCuts == 0 && truthCut {
		t.Fatalf("%d cuts (%d against the truth): too few to check", n, sketchCuts)
	}
	t.Logf("%d cuts (%d sketch cuts against the truth); the smaller half held at least %.3f of its leaf", n, sketchCuts, worst)
}

// runReplayLaw checks the message replay (lawConfig) on the law
// configuration name as subtests of t, and that it replayed a merge, a leaf
// split and, where a schedule of calls grew the membership, a joining site.
func runReplayLaw(t *testing.T, name string) {
	c := lawsOf(name)
	c.laws.Run(t, "replay")
	var merges, joins, splits int
	grown := false // a schedule of calls ran the replay, so a site joined
	for sched, s := range c.seen {
		for _, r := range s.replays {
			merges, joins, splits = merges+r.merges, joins+r.joins, splits+r.cuts
		}
		grown = grown || sched != "Concurrent"
	}
	if merges == 0 || grown && joins == 0 || splits == 0 {
		t.Fatalf("%d merges, %d joining sites, %d leaf splits: nothing replayed", merges, joins, splits)
	}
	t.Logf("%d merges, %d joining sites, %d leaf splits replayed", merges, joins, splits)
}
