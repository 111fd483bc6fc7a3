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

// lawConfig is one configuration of allq's law tests, each of which checks
// its law on the engine's law schedules (enginetest.RunLaws: Feed and
// FeedLocalBatch at B ∈ {1, 16, 512, 4096}, round robin, one-site bursts
// and random chunks, a checkpoint restore, a Reconfigure grow and shrink,
// and one goroutine per site under -race), one pass per schedule, from the
// tracker's first message, the concurrent schedule's included.
type lawConfig struct {
	name         string
	sketch, ends bool
	stream       enginetest.Stream
}

// lawConfigs are the law tests' configurations: k = 4, ε = 0.1, both store
// modes, on distinct uniform streams with and without the universe's ends
// (0 and math.MaxUint64, 1% each) and, with exact sites, on a Zipf stream
// perturbed in ascending tie order, whose hot values' sorted runs grow the
// tree past its height cap.
var lawConfigs = []lawConfig{
	{"exact", false, false, enginetest.DistinctUniform},
	{"sketch", true, false, enginetest.DistinctUniform},
	{"exact-ends", false, true, enginetest.DistinctUniform},
	{"sketch-ends", true, true, enginetest.DistinctUniform},
	{"zipf", false, false, enginetest.AscendingTiesZipf},
}

// lawConfigNamed returns the law configuration name.
func lawConfigNamed(name string) lawConfig {
	i := slices.IndexFunc(lawConfigs, func(c lawConfig) bool { return c.name == name })
	return lawConfigs[i]
}

// config returns the law harness's configuration of c.
func (c lawConfig) config() enginetest.Config {
	return enginetest.Config{
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
}

// TestDeltaLaw checks the delta law (checkDeltaLaw; with sketch sites the
// deltas' range only) after every call on every law configuration, and that
// every schedule ran three rounds with node reports (32,000 items are over
// three doublings past the 2,560-item bootstrap), some of which batched four
// arrivals.
func TestDeltaLaw(t *testing.T) {
	for _, c := range lawConfigs {
		t.Run(c.name, func(t *testing.T) {
			var maxThr int64
			delta := enginetest.Invariant(func(tb testing.TB, label string, ctr core.Tracker, truth *oracle.Counter) {
				tr := ctr.(*Tracker)
				if c.sketch {
					truth = nil
				}
				checkDeltaLaw(tb, label, tr, truth)
				if !tr.Bootstrapping() {
					maxThr = max(maxThr, tr.p.thrNode)
				}
			})
			for _, ctr := range enginetest.RunLaws(t, c.config(), delta) {
				if tr := ctr.(*Tracker); tr.Rounds() < 3 || tr.Meter().Kind("nd").Msgs == 0 {
					t.Fatalf("%d rounds, %d node reports: too short a stream", tr.Rounds(), tr.Meter().Kind("nd").Msgs)
				}
			}
			if maxThr < 4 {
				t.Fatalf("largest node batch %d: the delta law was never tested on batched reports", maxThr)
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
			var rankWorst, quantWorst float64
			eps := enginetest.Invariant(func(tb testing.TB, label string, tr core.Tracker, truth *oracle.Counter) {
				r, q := checkEpsLaw(tb, label, tr.(*Tracker), truth)
				rankWorst, quantWorst = max(rankWorst, r), max(quantWorst, q)
			})
			for _, ctr := range enginetest.RunLaws(t, c.config(), enginetest.Sparse(eps, epsLawStride, "feed", "B1")) {
				if tr := ctr.(*Tracker); tr.Rounds() < 3 {
					t.Fatalf("%d rounds: too short a stream", tr.Rounds())
				}
			}
			t.Logf("largest Rank error %.4f of its budget, largest Quantile error %.4f·ε|A|", rankWorst, quantWorst)
		})
	}
}

// TestRoundMergeLaw checks the round-merge law (mergeWatch) on every round
// build of every law configuration, and after every call that no fresh leaf
// that reached its trigger is left unsplit; and that every schedule checked
// a first and a doubling round, and but for the concurrent one a grow and a
// shrink round, and the Zipf stream a round forced by the height cap.
func TestRoundMergeLaw(t *testing.T) {
	for _, c := range lawConfigs {
		t.Run(c.name, func(t *testing.T) {
			legs := map[string]map[string]int{} // round builds checked by cause, by schedule
			merge := func(tb testing.TB, ctr core.Tracker) enginetest.Watch {
				sched := enginetest.ScheduleOf(tb)
				if legs[sched] == nil {
					legs[sched] = map[string]int{}
				}
				tr := ctr.(*Tracker)
				w := &mergeWatch{tb: tb, tr: tr, counts: legs[sched], k: tr.K()}
				return enginetest.Watch{Tap: w.tap, Check: w.atRest}
			}
			enginetest.RunLaws(t, c.config(), merge)
			var summary []string
			heights := 0
			for sched, counts := range legs {
				want := []string{"first", "doubling"}
				if sched != "Concurrent" {
					want = append(want, "grow", "shrink")
				}
				for _, cause := range want {
					if counts[cause] == 0 {
						t.Errorf("%s: no %s round checked (%v)", sched, cause, counts)
					}
				}
				heights += counts["height"]
				summary = append(summary, fmt.Sprintf("%s %v", sched, counts))
			}
			if c.stream == enginetest.AscendingTiesZipf && len(legs) > 1 && heights == 0 {
				t.Errorf("no round forced by the height cap checked")
			}
			slices.Sort(summary)
			t.Logf("round builds checked: %s", strings.Join(summary, "; "))
		})
	}
}

// splitLawLegs checks the split-balance law (cutWatch) on every leaf cut of
// the law configuration c, as subtests of t, sketch cuts against the truth
// on the schedules of one arrival a call, and after every call that no leaf
// is over its split trigger; and that 30 leaf cuts were checked, with sketch
// sites some against the truth. It runs on the streams without the ends
// only: copies of math.MaxUint64 can defeat the cut of the last leaf (its
// weighted median of medians lands on its hi) and leave it over its
// trigger.
func splitLawLegs(t *testing.T, c lawConfig) {
	var cuts []*cutWatch
	split := func(tb testing.TB, ctr core.Tracker) enginetest.Watch {
		var lag int64 // sketch cuts are checked against the truth on one arrival a call
		if sched := enginetest.ScheduleOf(tb); sched == "feed" || sched == "B1" {
			lag = 1
		}
		w := newCutWatch(tb, ctr.(*Tracker), lag)
		cuts = append(cuts, w)
		return enginetest.Watch{Tap: w.tap, Check: w.atRest}
	}
	if len(enginetest.RunLaws(t, c.config(), split)) == 0 {
		return // -run chose the by-value leg alone
	}
	var n, sketchCuts int
	worst := 0.5
	for _, w := range cuts {
		n, sketchCuts, worst = n+w.cuts, sketchCuts+w.sketchCuts, min(worst, w.worst)
	}
	truthCut := slices.ContainsFunc(cuts, func(w *cutWatch) bool { return w.lag > 0 })
	if n < 30 || c.sketch && sketchCuts == 0 && truthCut {
		t.Fatalf("%d cuts (%d against the truth): too few to check", n, sketchCuts)
	}
	t.Logf("%d cuts (%d sketch cuts against the truth); the smaller half held at least %.3f of its leaf", n, sketchCuts, worst)
}

// replayLawLegs checks the message replay (replay) on the law configuration
// c, as subtests of t: after every call every site's tree, height cap and
// node batch, rebuilt from the words alone, are the coordinator's, and the
// metered words are the encodings sent; and that it replayed a merge, a leaf
// split and, where a schedule of calls grew the membership, a joining site.
func replayLawLegs(t *testing.T, c lawConfig) {
	var replays []*replay
	grown := false // a schedule of calls ran, so a site joined
	rep := func(tb testing.TB, ctr core.Tracker) enginetest.Watch {
		r := newReplay(tb, ctr.(*Tracker))
		replays = append(replays, r)
		grown = grown || enginetest.ScheduleOf(tb) != "Concurrent"
		return enginetest.Watch{Tap: r.tap, Check: r.atRest}
	}
	enginetest.RunLaws(t, c.config(), rep)
	var merges, joins, splits int
	for _, r := range replays {
		merges, joins, splits = merges+r.merges, joins+r.joins, splits+r.cuts
	}
	if merges == 0 || grown && joins == 0 || splits == 0 {
		t.Fatalf("%d merges, %d joining sites, %d leaf splits: nothing replayed", merges, joins, splits)
	}
	t.Logf("%d merges, %d joining sites, %d leaf splits replayed", merges, joins, splits)
}
