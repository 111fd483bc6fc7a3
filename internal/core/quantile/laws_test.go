package quantile

import (
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/core/engine/enginetest"
	"disttrack/internal/oracle"
)

// lawConfig is one configuration of quantile's law tests, each of which
// checks its law on the engine's law schedules (enginetest.RunLaws: Feed and
// FeedLocalBatch at B ∈ {1, 16, 512, 4096}, round robin, one-site bursts
// and random chunks, a checkpoint restore, a Reconfigure grow and shrink,
// and one goroutine per site under -race), one pass per schedule: k = 4,
// ε = 0.1, φ ∈ {0.01, 0.5, 0.99}, on a distinct uniform stream.
type lawConfig struct {
	name         string
	sketch, ends bool // sketch sites; 0 and math.MaxUint64 in the stream, 1% each
}

// lawConfigs are the law tests' configurations: both store modes, with and
// without the universe's ends.
var lawConfigs = []lawConfig{
	{"exact", false, false},
	{"sketch", true, false},
	{"exact-ends", false, true},
	{"sketch-ends", true, true},
}

// config returns the law harness's configuration of c.
func (c lawConfig) config() enginetest.Config {
	return enginetest.Config{
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
}

// TestDeltaLaw checks the delta law (checkDeltaLaw; with sketch sites the
// deltas' range only) after every call on every law configuration, and with
// exact sites the round-lag law (roundLag); and that every schedule ran
// three rounds with interval and total reports, some interval batch reached
// four (32,000 items are over four doublings past the 1,280-item
// bootstrap), the round-lag law checked two rounds on every schedule of
// calls up to 512 items (a call of thousands may open several rounds at
// once, which the law skips on those schedules alone) and a round opened
// past 2m on the bursts of 16-item batches (a burst of 512-item batches
// reaches 2m while the other sites hold nothing unreported).
func TestDeltaLaw(t *testing.T) {
	for _, c := range lawConfigs {
		t.Run(c.name, func(t *testing.T) {
			var maxThr int64
			lags := map[string][]*roundLag{} // by schedule
			delta := func(tb testing.TB, ctr core.Tracker) enginetest.Watch {
				tr, sched := ctr.(*Tracker), enginetest.ScheduleOf(tb)
				lag := &roundLag{multi: sched == "B4096" || sched == "random"}
				lags[sched] = append(lags[sched], lag)
				return enginetest.Watch{Check: func(label string, truth *oracle.Counter) {
					if c.sketch {
						truth = nil
					}
					checkDeltaLaw(tb, label, tr, truth)
					if truth != nil {
						lag.check(tb, label, tr)
					}
					if !tr.Bootstrapping() {
						maxThr = max(maxThr, tr.p.thrIv)
					}
				}}
			}
			for _, ctr := range enginetest.RunLaws(t, c.config(), delta) {
				tr := ctr.(*Tracker)
				if tr.Rounds() < 3 || tr.Meter().Kind("iv").Msgs == 0 || tr.Meter().Kind("tot").Msgs == 0 {
					t.Fatalf("%d rounds, %d interval and %d total reports: too short a stream",
						tr.Rounds(), tr.Meter().Kind("iv").Msgs, tr.Meter().Kind("tot").Msgs)
				}
			}
			if maxThr < 4 {
				t.Fatalf("largest interval batch %d: the delta law was never tested on batched reports", maxThr)
			}
			lates := 0
			for sched, ls := range lags {
				checked := 0
				for _, l := range ls {
					checked, lates = checked+l.checked, lates+l.lates
				}
				if !c.sketch && sched != "Concurrent" && sched != "B4096" && sched != "random" && checked < 2 {
					t.Fatalf("%s: round-lag law checked on %d rounds: too few", sched, checked)
				}
			}
			if lags["B16-burst"] != nil && !c.sketch && lates == 0 {
				t.Fatalf("no round opened past 2m: the round-lag law was never tested on a late round")
			}
		})
	}
}

// TestEpsLaw checks the ε-law (checkEpsLaw) on every law configuration,
// every epsLawStride-th call on the per-item schedules and after every call
// on the others.
func TestEpsLaw(t *testing.T) {
	for _, c := range lawConfigs {
		t.Run(c.name, func(t *testing.T) {
			worst := 0.0
			eps := enginetest.Invariant(func(tb testing.TB, label string, tr core.Tracker, truth *oracle.Counter) {
				worst = max(worst, checkEpsLaw(tb, label, tr.(*Tracker), truth))
			})
			for _, ctr := range enginetest.RunLaws(t, c.config(), enginetest.Sparse(eps, epsLawStride, "feed", "B1")) {
				if tr := ctr.(*Tracker); tr.Rounds() < 3 {
					t.Fatalf("%d rounds: too short a stream", tr.Rounds())
				}
			}
			t.Logf("largest error %.4f·ε", worst)
		})
	}
}

// TestRoundMessages checks the round-message replay (roundReplay) of every
// round build, split, report and relocation, from each tracker's first
// message, the concurrent schedule's included, on the law configurations
// without the ends, "exact" as subtests of its own and "sketch": copies of
// math.MaxUint64 can defeat the split of the last interval (its weighted
// median of medians lands on its hi), which leaves it at or over splitAt,
// and the replay's re-split guard (checkResplit) fails there. The replay
// must see a "round-req", a merge bitmap past one word, a quarter of the
// splits' halves checked against the coordinator's and a drift report.
func TestRoundMessages(t *testing.T) {
	roundMessageLegs(t, lawConfigs[0])
	t.Run("sketch", func(t *testing.T) { roundMessageLegs(t, lawConfigs[1]) })
}

// roundMessageLegs runs TestRoundMessages on the law configuration c, as
// subtests of t.
func roundMessageLegs(t *testing.T, c lawConfig) {
	var replays []*roundReplay
	rep := func(tb testing.TB, ctr core.Tracker) enginetest.Watch {
		r := newRoundReplay(tb, ctr.(*Tracker))
		replays = append(replays, r)
		return enginetest.Watch{Tap: r.tap, Check: r.check}
	}
	if len(enginetest.RunLaws(t, c.config(), rep)) == 0 {
		return // -run chose the sketch legs alone
	}
	var roundReqs, merges, widest, splits, halves, drifts int
	balance := 0.5
	for _, r := range replays {
		roundReqs, merges, widest = roundReqs+r.roundReqs, merges+r.merges, max(widest, r.widest)
		splits, halves, drifts = splits+r.splits, halves+r.halves, drifts+r.reports.drifts
		balance = min(balance, r.balance)
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
