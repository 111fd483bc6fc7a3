package quantile

import (
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/core/engine/enginetest"
	"disttrack/internal/oracle"
)

// lawConfig is quantile's law list on one configuration of its law tests,
// and what the laws saw on the last pass of each schedule. The law schedules
// (enginetest.LawList: Feed and FeedLocalBatch at B ∈ {1, 16, 512, 4096},
// round robin, one-site bursts and random chunks, a checkpoint restore, a
// Reconfigure grow and shrink, and one goroutine per site under -race) feed
// each configuration once per schedule for every law of its list:
//
//   - "delta", the delta law (checkDeltaLaw; with sketch sites the deltas'
//     range only), after every call, and with exact sites the round-lag law
//     (roundLag);
//   - "eps", the ε-law (checkEpsLaw), every epsLawStride-th call on the
//     per-item schedules and after every call on the others;
//   - "replay", the round-message replay (roundReplay) of every round
//     build, split, report and relocation, from each tracker's first
//     message, the concurrent schedule's included, on the streams without
//     the ends: copies of math.MaxUint64 can defeat the split of the last
//     interval (its weighted median of medians lands on its hi), which
//     leaves it at or over splitAt, and the replay's re-split guard
//     (checkResplit) fails there.
type lawConfig struct {
	sketch, ends bool

	laws *enginetest.LawList // made on first use (lawsOf)
	seen map[string]*seen    // by schedule, its last pass
}

// seen is what the laws saw on one pass of a schedule, for the law tests'
// whole-run gates.
type seen struct {
	maxThr     int64   // the largest interval batch the delta law saw
	lagChecked int     // rounds the round-lag law checked
	lates      int     // of those, rounds that opened past 2m
	worst      float64 // the ε-law's largest error over ε
	replays    []*roundReplay
}

// on returns what the laws saw on the pass tb feeds.
func (c *lawConfig) on(tb testing.TB) *seen {
	sched := enginetest.ScheduleOf(tb)
	if c.seen[sched] == nil {
		c.seen[sched] = &seen{}
	}
	return c.seen[sched]
}

// lawConfigs are the configurations of the law tests, by name: k = 4,
// ε = 0.1, φ ∈ {0.01, 0.5, 0.99}, both store modes, on distinct uniform
// streams with and without the universe's ends (0 and math.MaxUint64, 1%
// each). Every law test shares them.
var lawConfigs = map[string]*lawConfig{
	"exact":       {},
	"sketch":      {sketch: true},
	"exact-ends":  {ends: true},
	"sketch-ends": {sketch: true, ends: true},
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
			tr, err := New(Config{K: 4, Eps: 0.1, Phis: []float64{0.01, 0.5, 0.99}, Sketch: c.sketch})
			if err != nil {
				tb.Fatal(err)
			}
			return tr
		},
		K:      4,
		Stream: enginetest.DistinctUniform,
		Ends:   c.ends,
	}
	delta := func(tb testing.TB, ctr core.Tracker) enginetest.Watch {
		tr, s := ctr.(*Tracker), c.on(tb)
		sched := enginetest.ScheduleOf(tb)
		lag := roundLag{seen: s, multi: sched == "B4096" || sched == "random"}
		return enginetest.Watch{Check: func(label string, truth *oracle.Counter) {
			if c.sketch {
				truth = nil
			}
			checkDeltaLaw(tb, label, tr, truth)
			if truth != nil {
				lag.check(tb, label, tr)
			}
			if !tr.Bootstrapping() {
				s.maxThr = max(s.maxThr, tr.p.thrIv)
			}
		}}
	}
	eps := enginetest.Invariant(func(tb testing.TB, label string, tr core.Tracker, truth *oracle.Counter) {
		s := c.on(tb)
		s.worst = max(s.worst, checkEpsLaw(tb, label, tr.(*Tracker), truth))
	})
	rep := func(tb testing.TB, ctr core.Tracker) enginetest.Watch {
		r := newRoundReplay(tb, ctr.(*Tracker))
		s := c.on(tb)
		s.replays = append(s.replays, r)
		return enginetest.Watch{Tap: r.tap, Check: r.check}
	}
	laws := []enginetest.NamedLaw{
		{Name: "delta", Law: delta},
		{Name: "eps", Law: enginetest.Sparse(eps, epsLawStride, "feed", "B1")},
	}
	if !c.ends {
		laws = append(laws, enginetest.NamedLaw{Name: "replay", Law: rep})
	}
	c.laws = enginetest.NewLawList(cfg, laws...)
	c.laws.Fresh = func(sched string) { delete(c.seen, sched) }
	return c
}

// TestDeltaLaw checks the delta and round-lag laws (lawConfig) on every
// configuration of the law tests, and that every schedule ran three rounds
// with interval and total reports, some interval batch reached four
// (32,000 items are over four doublings past the 1,280-item bootstrap), the
// round-lag law checked two rounds on every schedule of calls up to 512
// items (a call of thousands may open several rounds at once, which the
// law skips on those schedules alone) and a round
// opened past 2m on the bursts of 16-item batches (a burst of 512-item
// batches reaches 2m while the other sites hold nothing unreported).
func TestDeltaLaw(t *testing.T) {
	for _, name := range []string{"exact", "sketch", "exact-ends", "sketch-ends"} {
		t.Run(name, func(t *testing.T) {
			c := lawsOf(name)
			for _, ctr := range c.laws.Run(t, "delta") {
				tr := ctr.(*Tracker)
				if tr.Rounds() < 3 || tr.Meter().Kind("iv").Msgs == 0 || tr.Meter().Kind("tot").Msgs == 0 {
					t.Fatalf("%d rounds, %d interval and %d total reports: too short a stream",
						tr.Rounds(), tr.Meter().Kind("iv").Msgs, tr.Meter().Kind("tot").Msgs)
				}
			}
			var maxThr int64
			lates := 0
			for sched, s := range c.seen {
				maxThr, lates = max(maxThr, s.maxThr), lates+s.lates
				if !c.sketch && sched != "Concurrent" && sched != "B4096" && sched != "random" && s.lagChecked < 2 {
					t.Fatalf("%s: round-lag law checked on %d rounds: too few", sched, s.lagChecked)
				}
			}
			if maxThr < 4 {
				t.Fatalf("largest interval batch %d: the delta law was never tested on batched reports", maxThr)
			}
			if c.seen["B16-burst"] != nil && !c.sketch && lates == 0 {
				t.Fatalf("no round opened past 2m: the round-lag law was never tested on a late round")
			}
		})
	}
}

// TestEpsLaw checks the ε-law (lawConfig) on every configuration of the law
// tests.
func TestEpsLaw(t *testing.T) {
	for _, name := range []string{"exact", "sketch", "exact-ends", "sketch-ends"} {
		t.Run(name, func(t *testing.T) {
			c := lawsOf(name)
			for _, ctr := range c.laws.Run(t, "eps") {
				if tr := ctr.(*Tracker); tr.Rounds() < 3 {
					t.Fatalf("%d rounds: too short a stream", tr.Rounds())
				}
			}
			worst := 0.0
			for _, s := range c.seen {
				worst = max(worst, s.worst)
			}
			t.Logf("largest error %.4f·ε", worst)
		})
	}
}

// TestRoundMessages checks the round-message replay (lawConfig) on the law
// configurations without the ends, "exact" as subtests of its own and
// "sketch", and that the replay saw a "round-req", a merge bitmap past one
// word, a quarter of the splits' halves checked against the coordinator's
// and a drift report.
func TestRoundMessages(t *testing.T) {
	checkRoundReplay(t, "exact")
	t.Run("sketch", func(t *testing.T) { checkRoundReplay(t, "sketch") })
}

func checkRoundReplay(t *testing.T, name string) {
	c := lawsOf(name)
	if len(c.laws.Run(t, "replay")) == 0 {
		return // -run chose the sketch legs alone
	}
	var roundReqs, merges, widest, splits, halves, drifts int
	balance := 0.5
	for _, s := range c.seen {
		for _, r := range s.replays {
			roundReqs, merges, widest = roundReqs+r.roundReqs, merges+r.merges, max(widest, r.widest)
			splits, halves, drifts = splits+r.splits, halves+r.halves, drifts+r.reports.drifts
			balance = min(balance, r.balance)
		}
	}
	switch {
	case roundReqs == 0:
		t.Fatalf("no \"round-req\" reached the meter's tap")
	case merges == 0 || widest < 2:
		t.Fatalf("%d merge broadcasts, the widest %d words: the bitmap was never tested past one word", merges, widest)
	case halves*4 < splits:
		t.Fatalf("%d of %d splits' half counts checked against the coordinator's: too few", halves, splits)
	case drifts == 0:
		t.Fatal("no drift report checked")
	}
	t.Logf("%d splits, %d halves checked; the smaller half held at least %.3f of its interval; %d drift reports",
		splits, halves, balance, drifts)
}
