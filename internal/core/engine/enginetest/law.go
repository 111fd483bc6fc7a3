package enginetest

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/oracle"
)

// A Law is a protocol invariant. The harness calls it once for every
// tracker it makes, before the tracker is fed or restored, with the test
// that makes it, and checks the Watch it returns: the law's state on that
// tracker.
type Law func(tb testing.TB, tr core.Tracker) Watch

// Watch is one law on one tracker.
type Watch struct {
	// Tap, if non-nil, sees every message the tracker's meter records, as it
	// is sent: the harness installs one tap on each tracker
	// (wire.Meter.SetTap) that shows every message to every law's Tap. On a
	// concurrent schedule it runs on the feeders' goroutines, under the
	// engine's locks, so it must not stop the test (FailNow, Fatal): it
	// reports a failure with Errorf. The harness calls no tap once the test
	// has failed, and stops the test on its own goroutine after the call
	// that failed.
	Tap func(kind string, site int, words []uint64)
	// Check checks the law against truth, the exact multiset of every
	// arrival fed so far, with no feed in flight: RunLaws calls it between
	// sequential calls and inside Quiesce once the concurrent feeders have
	// finished, and the conformance suite (Config.CheckFinal) after each of
	// its concurrent stress runs. It runs on the test's goroutine and may
	// stop the test. label names the point ("at rest", "end", or the
	// concurrent run).
	Check func(label string, truth *oracle.Counter)
}

// Invariant returns the law that checks check on every tracker, with no
// state of its own.
func Invariant(check func(tb testing.TB, label string, tr core.Tracker, truth *oracle.Counter)) Law {
	return func(tb testing.TB, tr core.Tracker) Watch {
		return Watch{Check: func(label string, truth *oracle.Counter) { check(tb, label, tr, truth) }}
	}
}

// Sparse returns law checked only on every n-th call at rest of the
// schedules named (RunLaws' subtest names: "feed", "B1", ...), and
// always after a restore or membership change there (a new tracker or a new
// K); the other schedules, and the end of each, are checked on every call.
// Its tap sees every message. It keeps a costly law inside a tier-1 budget
// on the per-item schedules.
func Sparse(law Law, n int, schedules ...string) Law {
	calls := map[string]int{} // by schedule, across its trackers
	return func(tb testing.TB, tr core.Tracker) Watch {
		w := law(tb, tr)
		name := tb.Name()
		if !slices.Contains(schedules, ScheduleOf(tb)) {
			return w
		}
		check, k := w.Check, 0 // k 0: a new tracker
		w.Check = func(label string, truth *oracle.Counter) {
			calls[name]++
			changed := k != tr.K()
			k = tr.K()
			if label == "at rest" && !changed && calls[name]%n != 0 {
				return
			}
			check(label, truth)
		}
		return w
	}
}

// ScheduleOf returns the schedule RunLaws feeds in tb ("feed", "B1", ...,
// "Concurrent"): the last element of its name.
func ScheduleOf(tb testing.TB) string {
	name := tb.Name()
	return name[strings.LastIndex(name, "/")+1:]
}

// newTracker makes a tracker of cfg and one Watch of each law on it, with one
// tap that shows every message to every law's Tap until tb fails, and
// returns the tracker and the check of every law at rest, in the order
// given, which stops tb where tb has failed, before the laws and after.
func newTracker(tb testing.TB, cfg Config, laws []Law) (core.Tracker, func(label string, truth *oracle.Counter)) {
	tr := cfg.New(tb)
	var taps []func(string, int, []uint64)
	var checks []func(string, *oracle.Counter)
	for _, law := range laws {
		w := law(tb, tr)
		if w.Tap != nil {
			taps = append(taps, w.Tap)
		}
		if w.Check != nil {
			checks = append(checks, w.Check)
		}
	}
	if len(taps) > 0 {
		tr.Meter().SetTap(func(kind string, site int, words []uint64) {
			if tb.Failed() {
				return
			}
			for _, tap := range taps {
				tap(kind, site, words)
			}
		})
	}
	return tr, func(label string, truth *oracle.Counter) {
		if tb.Failed() {
			tb.FailNow()
		}
		for _, check := range checks {
			check(label, truth)
		}
		if tb.Failed() {
			tb.FailNow()
		}
	}
}

// schedule deals a stream out in calls: deal returns the site and the
// number of items of call c on a tracker of k sites (0: one Feed), drawing
// on rng, which is seeded afresh for each pass. A nil deal is the concurrent
// schedule.
type schedule struct {
	name string
	deal func(rng *rand.Rand, c, k int) (site, size int)
}

// roundRobin feeds batches of batch items (Feed per item when batch is 0),
// burst consecutive batches to one site, the sites in turn.
func roundRobin(name string, batch, burst int) schedule {
	return schedule{name, func(_ *rand.Rand, c, k int) (int, int) { return (c / burst) % k, batch }}
}

// lawSchedules are the schedules RunLaws feeds, in order:
//
//   - after every Feed, and after every FeedLocalBatch call with batches of
//     1, 16, 512 and 4,096 dealt round robin, in bursts of 16 consecutive
//     batches of 16 and 512 to one site, and in random chunks of up to
//     4,096 items to random sites from a fixed seed ("random"), through a
//     checkpoint restored into a fresh tracker at a third of the stream, a
//     Reconfigure grow to K + 2 sites at half and a shrink to max(K − 1, 1)
//     at two thirds;
//   - Concurrent: one goroutine per site feeding its share through
//     FeedLocalBatch in random batches of up to 600, then every law under
//     Quiesce (run it under -race).
var lawSchedules = []schedule{
	roundRobin("feed", 0, 1),
	roundRobin("B1", 1, 1),
	roundRobin("B16", 16, 1),
	roundRobin("B512", 512, 1),
	roundRobin("B4096", 4096, 1),
	roundRobin("B16-burst", 16, 16),
	roundRobin("B512-burst", 512, 16),
	{"random", func(rng *rand.Rand, _, k int) (int, int) { return rng.Intn(k), 1 + rng.Intn(4096) }},
	{"Concurrent", nil},
}

// RunLaws checks every law on cfg's stream of K·PerSite items (PerSite 8000
// if unset), from the first arrival to the last, in one pass per schedule
// (lawSchedules), each a subtest of t: every law sees every message of every
// tracker through its Tap and is checked after every call at its own cadence
// (Sparse), through the subtest's own t. A pass stops after the call or
// check that failed it. RunLaws returns the last tracker of each schedule
// that ran, so the caller can assert the stream reached what the laws are
// about.
func RunLaws(t *testing.T, cfg Config, laws ...Law) []core.Tracker {
	if cfg.PerSite == 0 {
		cfg.PerSite = 8000
	}
	items := genStream(cfg, cfg.K*cfg.PerSite, 71)
	var fed []core.Tracker
	for _, sched := range lawSchedules {
		t.Run(sched.name, func(t *testing.T) {
			if sched.deal == nil {
				fed = append(fed, runLawConcurrent(t, cfg, laws))
			} else {
				fed = append(fed, runLawSchedule(t, cfg, laws, items, sched))
			}
		})
	}
	return fed
}

// runLawConcurrent feeds one goroutine per site its share of cfg's stream
// through FeedLocalBatch, in random batches of up to 600, then checks every
// law under Quiesce.
func runLawConcurrent(tb testing.TB, cfg Config, laws []Law) core.Tracker {
	streams := dealStreams(cfg, 73)
	tr, check := newTracker(tb, cfg, laws)
	feedConcurrently(tr, streams, 600)
	truth := truthOf(streams)
	tr.Quiesce(func() { check("concurrent", truth) })
	return tr
}

// feedConcurrently feeds streams[j] to site j of tr from one goroutine per
// site, in FeedLocalBatch calls of 1 + rng.Intn(chunkMax) items (the last
// cut short), site j's rng seeded with j, and returns once all are fed.
func feedConcurrently(tr core.Tracker, streams [][]uint64, chunkMax int) {
	var wg sync.WaitGroup
	for j, xs := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(j)))
			for len(xs) > 0 {
				b := min(1+rng.Intn(chunkMax), len(xs))
				tr.FeedLocalBatch(j, xs[:b])
				xs = xs[b:]
			}
		}()
	}
	wg.Wait()
}

// truthOf returns the exact multiset of the per-site streams.
func truthOf(streams [][]uint64) *oracle.Counter {
	all := slices.Concat(streams...)
	truth := oracle.NewCounter(all)
	for _, x := range all {
		truth.Add(x)
	}
	return truth
}

// runLawSchedule feeds items to a fresh tracker as sched deals them,
// checking every law before the first call, after every call and after
// each membership change and restore.
func runLawSchedule(tb testing.TB, cfg Config, laws []Law, items []uint64, sched schedule) core.Tracker {
	tr, check := newTracker(tb, cfg, laws)
	rng := rand.New(rand.NewSource(79))
	truth := oracle.NewCounter(items)
	n := len(items)
	restored, grown, shrunk := false, false, false
	for c, i := 0, 0; i < n; c++ {
		switch {
		case !restored && i >= n/3:
			restored = true
			var buf bytes.Buffer
			if err := tr.Checkpoint(&buf); err != nil {
				tb.Fatal(err)
			}
			tr, check = newTracker(tb, cfg, laws)
			if err := tr.Restore(&buf); err != nil {
				tb.Fatal(err)
			}
		case !grown && i >= n/2:
			grown = true
			if err := tr.Reconfigure(cfg.K + 2); err != nil {
				tb.Fatal(err)
			}
		case !shrunk && i >= 2*n/3:
			shrunk = true
			if err := tr.Reconfigure(max(cfg.K-1, 1)); err != nil {
				tb.Fatal(err)
			}
		}
		check("at rest", truth)
		site, size := sched.deal(rng, c, tr.K())
		xs := items[i:min(i+max(size, 1), n)]
		if size == 0 {
			tr.Feed(site, xs[0])
		} else {
			tr.FeedLocalBatch(site, xs)
		}
		for _, x := range xs {
			truth.Add(x)
		}
		i += len(xs)
	}
	check("end", truth)
	return tr
}
