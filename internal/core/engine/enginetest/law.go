package enginetest

import (
	"bytes"
	"fmt"
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
	// engine's locks. In a LawList it may stop its own law with Fatal, as
	// Check may (the rest of the pass goes on); a CheckFinal tap must not
	// stop the test.
	Tap func(kind string, site int, words []uint64)
	// Check checks the law against truth, the exact multiset of every
	// arrival fed so far, with no feed in flight: a LawList calls it between
	// sequential calls and inside Quiesce once the concurrent feeders have
	// finished, and the conformance suite (Config.CheckFinal) after each of
	// its concurrent stress runs. label names the point ("at rest", "end",
	// or the concurrent run).
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
// schedules named (LawList.Run's subtest names: "feed", "B1", ...), and
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

// ScheduleOf returns the schedule a LawList feeds in tb ("feed", "B1", ...,
// "Concurrent"): the last element of its name.
func ScheduleOf(tb testing.TB) string {
	name := tb.Name()
	return name[strings.LastIndex(name, "/")+1:]
}

// newTracker makes a tracker of cfg and one Watch of each law on it, with one
// tap that shows every message to every law's Tap, and returns the tracker
// and the check of every law at rest, in the order given.
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
			for _, tap := range taps {
				tap(kind, site, words)
			}
		})
	}
	return tr, func(label string, truth *oracle.Counter) {
		for _, check := range checks {
			check(label, truth)
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

// lawSchedules are the schedules a LawList feeds, in order:
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

// NamedLaw is one law of a kind's list, under the name its test asks for.
type NamedLaw struct {
	Name string
	Law  Law
}

// LawList is a kind's law list on one configuration, checked against cfg's
// stream of K·PerSite items from the first arrival to the last in one pass
// per schedule (lawSchedules), and reported law by law. Each law's test
// calls Run, which runs the schedules as its subtests: the first subtest
// to ask for a schedule feeds it once, checking every law of the list after
// every call at the law's own cadence (Sparse), with every message of every
// tracker fanned out to each law's Tap, and records each law's failures
// apart; every subtest that asks for a law fails with that law's failures
// and the harness's, and no other. A subtest that asks again for a schedule
// it has reported (go test -count) feeds a fresh pass. Its tests must not
// run in parallel.
type LawList struct {
	// Fresh, if non-nil, is called with a schedule's name as a pass of it
	// begins, before its first tracker: a caller that gathers what the laws
	// saw for its whole-run gates drops the schedule's last pass there, so
	// a gate reads the current pass of each schedule and no other.
	Fresh func(schedule string)

	cfg   Config
	laws  []NamedLaw
	items []uint64            // the stream of the sequential schedules, made on first use
	runs  map[string]*lawPass // the last pass of each schedule
}

// NewLawList returns the law list laws on cfg (PerSite 8000 if unset).
func NewLawList(cfg Config, laws ...NamedLaw) *LawList {
	if cfg.PerSite == 0 {
		cfg.PerSite = 8000
	}
	return &LawList{cfg: cfg, laws: laws, runs: map[string]*lawPass{}}
}

// lawPass is one pass of a LawList over one schedule.
type lawPass struct {
	feeder   string            // the subtest that fed it
	tr       core.Tracker      // the last tracker fed; nil if the harness failed
	harness  *lawTB            // the feeding's own failures
	laws     map[string]*lawTB // each law's failures, by name
	reported map[string]bool   // the subtests that reported it
}

// Run runs the schedules as subtests of t, each failing for the failures
// its pass recorded for the law name, and returns the last tracker of each
// schedule, so the caller can assert the stream reached what the law is
// about.
func (l *LawList) Run(t *testing.T, name string) []core.Tracker {
	if !slices.ContainsFunc(l.laws, func(law NamedLaw) bool { return law.Name == name }) {
		t.Fatalf("no law %q in the list", name)
	}
	var fed []core.Tracker
	for _, sched := range lawSchedules {
		t.Run(sched.name, func(t *testing.T) {
			p := l.runs[sched.name]
			if p == nil || p.reported[t.Name()] {
				p = l.feed(t, sched)
				l.runs[sched.name] = p
			}
			p.reported[t.Name()] = true
			p.report(t, name)
			fed = append(fed, p.tr)
		})
	}
	return fed
}

// feed makes one pass of every law over sched, in the subtest t.
func (l *LawList) feed(t *testing.T, sched schedule) *lawPass {
	if l.Fresh != nil {
		l.Fresh(sched.name)
	}
	p := &lawPass{feeder: t.Name(), harness: &lawTB{TB: t}, laws: map[string]*lawTB{}, reported: map[string]bool{}}
	laws := make([]Law, len(l.laws))
	for i, law := range l.laws {
		tb := &lawTB{TB: t}
		p.laws[law.Name] = tb
		laws[i] = tb.own(law.Law)
	}
	p.harness.guard(func() {
		if sched.deal == nil {
			p.tr = runLawConcurrent(p.harness, l.cfg, laws)
			return
		}
		if l.items == nil {
			l.items = genStream(l.cfg, l.cfg.K*l.cfg.PerSite, 71)
		}
		p.tr = runLawSchedule(p.harness, l.cfg, laws, l.items, sched)
	})
	return p
}

// report fails t for what the pass recorded for the law name and for the
// harness, naming the subtest that fed it, and stops t where either
// stopped.
func (p *lawPass) report(t *testing.T, name string) {
	t.Helper()
	for _, tb := range []*lawTB{p.harness, p.laws[name]} {
		if !tb.failed {
			continue
		}
		if p.feeder != t.Name() {
			t.Logf("fed once for every law of the list, in %s", p.feeder)
		}
		for _, e := range tb.errs {
			t.Error(e)
		}
		if tb.stopped {
			t.FailNow()
		}
		t.Fail()
	}
}

// lawTB is the testing.TB one law of a pass sees (or the pass's harness):
// the feeding subtest's, but that it records failures for the subtests that
// report the law, and its FailNow stops that law alone, for the rest of the
// pass.
type lawTB struct {
	testing.TB
	mu              sync.Mutex // a concurrent schedule's taps run on the feeders' goroutines
	errs            []string
	failed, stopped bool
}

// stopLaw is the panic with which a lawTB's FailNow unwinds the law.
type stopLaw struct{ tb *lawTB }

func (r *lawTB) Error(args ...any)                 { r.fail(strings.TrimSuffix(fmt.Sprintln(args...), "\n")) }
func (r *lawTB) Errorf(format string, args ...any) { r.fail(fmt.Sprintf(format, args...)) }
func (r *lawTB) Fatal(args ...any)                 { r.Error(args...); r.FailNow() }
func (r *lawTB) Fatalf(format string, args ...any) { r.Errorf(format, args...); r.FailNow() }
func (r *lawTB) Fail()                             { r.fail("") }

// Helper does nothing: a lawTB's failures are printed later, by the law
// tests that report them, so no line of the law's own is ever marked.
func (r *lawTB) Helper() {}

func (r *lawTB) fail(e string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e != "" {
		r.errs = append(r.errs, e)
	}
	r.failed = true
}

func (r *lawTB) Failed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed
}

func (r *lawTB) FailNow() {
	r.mu.Lock()
	r.failed, r.stopped = true, true
	r.mu.Unlock()
	panic(stopLaw{r})
}

// guard runs f unless the law has stopped, and recovers where f stops it.
func (r *lawTB) guard(f func()) {
	r.mu.Lock()
	stopped := r.stopped
	r.mu.Unlock()
	if stopped {
		return
	}
	defer func() {
		if e := recover(); e != nil {
			if s, ok := e.(stopLaw); !ok || s.tb != r {
				panic(e)
			}
		}
	}()
	f()
}

// own returns law with r as its testing.TB and every call into it guarded.
func (r *lawTB) own(law Law) Law {
	return func(_ testing.TB, tr core.Tracker) Watch {
		var w Watch
		r.guard(func() { w = law(r, tr) })
		if tap := w.Tap; tap != nil {
			w.Tap = func(kind string, site int, words []uint64) { r.guard(func() { tap(kind, site, words) }) }
		}
		if check := w.Check; check != nil {
			w.Check = func(label string, truth *oracle.Counter) { r.guard(func() { check(label, truth) }) }
		}
		return w
	}
}

// runLawConcurrent feeds one goroutine per site its share of cfg's stream
// through FeedLocalBatch, in random batches of up to 600, then checks every
// law under Quiesce.
func runLawConcurrent(tb testing.TB, cfg Config, laws []Law) core.Tracker {
	streams := dealStreams(cfg, 73)
	tr, check := newTracker(tb, cfg, laws)
	var wg sync.WaitGroup
	for j := range streams {
		wg.Add(1)
		go func(site int, xs []uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(site)))
			for len(xs) > 0 {
				b := min(1+rng.Intn(600), len(xs))
				tr.FeedLocalBatch(site, xs[:b])
				xs = xs[b:]
			}
		}(j, streams[j])
	}
	wg.Wait()
	truth := truthOf(streams)
	tr.Quiesce(func() { check("concurrent", truth) })
	return tr
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
