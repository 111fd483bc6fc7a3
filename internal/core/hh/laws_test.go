package hh

import (
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/core/engine/enginetest"
	"disttrack/internal/oracle"
)

// lawConfig is hh's law list on one configuration of its law tests, and
// what the laws saw on the last pass of each schedule. The law schedules
// (enginetest.LawList: Feed and FeedLocalBatch at B ∈ {1, 16, 512, 4096},
// round robin, one-site bursts and random chunks, a checkpoint restore, a
// Reconfigure grow and shrink, and one goroutine per site under -race) feed
// each configuration once per schedule for every law of its list:
//
//   - "eps", the ε-law (checkEpsLaw), every epsLawStride-th call on the
//     small-batch schedules and after every call on the others;
//   - "replay", the message replay (msgReplay): after every call the
//     coordinator's C.m and every C.m_x, and each site's S_j.m, equal what
//     the words alone give, a "freq" report is one word exactly when its
//     item and increment fit beside the width header, the metered words of
//     each kind equal the encodings' lengths, and the broadcast lags C.m by
//     less than the factor c (checkLag). It replays each tracker from its
//     first message, the concurrent schedule's included.
type lawConfig struct {
	k            int
	sketch, ends bool

	laws *enginetest.LawList // made on first use (lawsOf)
	seen map[string]*seen    // by schedule, its last pass
}

// seen is what the laws saw on one pass of a schedule, for the law tests'
// whole-run gates.
type seen struct {
	worst   float64 // the ε-law's lowest reported key under φ|A|, over ε|A|
	replays []*msgReplay
}

// on returns what the laws saw on the pass tb feeds.
func (c *lawConfig) on(tb testing.TB) *seen {
	sched := enginetest.ScheduleOf(tb)
	if c.seen[sched] == nil {
		c.seen[sched] = &seen{}
	}
	return c.seen[sched]
}

// lawConfigs are the configurations of the law tests, by name: ε = 0.05,
// 4,000 items a site, both site stores, on Zipf streams with and without
// the universe's ends (0 and math.MaxUint64, 1% each) at k = 8, and with
// them at k = 4. Every law test shares them.
var lawConfigs = map[string]*lawConfig{
	"exact":          {k: 8},
	"sketch":         {k: 8, sketch: true},
	"exact-ends":     {k: 8, ends: true},
	"sketch-ends":    {k: 8, sketch: true, ends: true},
	"k4-exact-ends":  {k: 4, ends: true},
	"k4-sketch-ends": {k: 4, sketch: true, ends: true},
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
			tr, err := New(Config{K: c.k, Eps: 0.05, Sketch: c.sketch})
			if err != nil {
				tb.Fatal(err)
			}
			return tr
		},
		K:       c.k,
		PerSite: 4000,
		Ends:    c.ends,
	}
	eps := enginetest.Invariant(func(tb testing.TB, label string, tr core.Tracker, truth *oracle.Counter) {
		s := c.on(tb)
		s.worst = max(s.worst, checkEpsLaw(tb, label, tr.(*Tracker), truth))
	})
	replay := func(tb testing.TB, ctr core.Tracker) enginetest.Watch {
		tr := ctr.(*Tracker)
		r := &msgReplay{cmx: map[uint64]int64{}, base: map[string]int64{}, sent: map[string]int64{}}
		s := c.on(tb)
		s.replays = append(s.replays, r)
		return enginetest.Watch{Tap: r.tap, Check: func(label string, _ *oracle.Counter) { r.check(tb, label, tr) }}
	}
	c.laws = enginetest.NewLawList(cfg,
		enginetest.NamedLaw{Name: "eps", Law: enginetest.Sparse(eps, epsLawStride, "feed", "B1", "B16", "B16-burst")},
		enginetest.NamedLaw{Name: "replay", Law: replay})
	c.laws.Fresh = func(sched string) { delete(c.seen, sched) }
	return c
}

// checkRounds fails t unless every tracker fed ran three rounds.
func checkRounds(t *testing.T, fed []core.Tracker) {
	t.Helper()
	for _, ctr := range fed {
		if tr := ctr.(*Tracker); tr.Rounds() < 3 {
			t.Fatalf("%d rounds: too short a stream", tr.Rounds())
		}
	}
}

// TestEpsLaw checks the ε-law (lawConfig) on every configuration of the law
// tests.
func TestEpsLaw(t *testing.T) {
	for _, name := range []string{"exact", "sketch", "exact-ends", "sketch-ends", "k4-exact-ends", "k4-sketch-ends"} {
		t.Run(name, func(t *testing.T) {
			c := lawsOf(name)
			checkRounds(t, c.laws.Run(t, "eps"))
			worst := 0.0
			for _, s := range c.seen {
				worst = max(worst, s.worst)
			}
			t.Logf("lowest reported key %.4f·ε|A| under φ|A|", worst)
		})
	}
}

// TestMessageReplay checks the message replay (lawConfig) on every
// configuration of the law tests: "exact" and "sketch" at k = 4 on the
// stream with the ends, and the k = 8 configurations as "k8-…". Both
// "freq" forms must be replayed, the two-word one where a key near
// math.MaxUint64 is in the stream.
func TestMessageReplay(t *testing.T) {
	for _, c := range []struct{ name, config string }{
		{"exact", "k4-exact-ends"},
		{"sketch", "k4-sketch-ends"},
		{"k8-exact", "exact"},
		{"k8-sketch", "sketch"},
		{"k8-exact-ends", "exact-ends"},
		{"k8-sketch-ends", "sketch-ends"},
	} {
		t.Run(c.name, func(t *testing.T) {
			lc := lawsOf(c.config)
			checkRounds(t, lc.laws.Run(t, "replay"))
			var freq [3]int
			for _, s := range lc.seen {
				for _, r := range s.replays {
					freq[1] += r.freqWords[1]
					freq[2] += r.freqWords[2]
				}
			}
			if freq[1] == 0 || lc.ends && freq[2] == 0 {
				t.Fatalf("%d one-word and %d two-word \"freq\" reports: both forms must be replayed", freq[1], freq[2])
			}
			t.Logf("%d one-word and %d two-word \"freq\" reports", freq[1], freq[2])
		})
	}
}
