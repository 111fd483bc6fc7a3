package hh

import (
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/core/engine/enginetest"
	"disttrack/internal/oracle"
)

// lawConfig is one configuration of hh's law tests, each of which checks its
// law on the engine's law schedules (enginetest.RunLaws: Feed and
// FeedLocalBatch at B ∈ {1, 16, 512, 4096}, round robin, one-site bursts
// and random chunks, a checkpoint restore, a Reconfigure grow and shrink,
// and one goroutine per site under -race), one pass per schedule: ε = 0.05
// and 4,000 items a site on a Zipf stream.
type lawConfig struct {
	k            int
	sketch, ends bool // sketch sites; 0 and math.MaxUint64 in the stream, 1% each
}

// config returns the law harness's configuration of c.
func (c lawConfig) config() enginetest.Config {
	return enginetest.Config{
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

// TestEpsLaw checks the ε-law (checkEpsLaw) with both site stores, with and
// without the universe's ends at k = 8, and with them at k = 4, every
// epsLawStride-th call on the small-batch schedules and after every call on
// the others.
func TestEpsLaw(t *testing.T) {
	for _, c := range []struct {
		name string
		lawConfig
	}{
		{"exact", lawConfig{8, false, false}},
		{"sketch", lawConfig{8, true, false}},
		{"exact-ends", lawConfig{8, false, true}},
		{"sketch-ends", lawConfig{8, true, true}},
		{"k4-exact-ends", lawConfig{4, false, true}},
		{"k4-sketch-ends", lawConfig{4, true, true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			worst := 0.0
			eps := enginetest.Invariant(func(tb testing.TB, label string, tr core.Tracker, truth *oracle.Counter) {
				worst = max(worst, checkEpsLaw(tb, label, tr.(*Tracker), truth))
			})
			checkRounds(t, enginetest.RunLaws(t, c.config(), enginetest.Sparse(eps, epsLawStride, "feed", "B1", "B16", "B16-burst")))
			t.Logf("lowest reported key %.4f·ε|A| under φ|A|", worst)
		})
	}
}

// TestMessageReplay checks the message replay (msgReplay) on TestEpsLaw's
// configurations: after every call the coordinator's C.m and every C.m_x,
// and each site's S_j.m, equal what the words alone give, a "freq" report
// is one word exactly when its item and increment fit beside the width
// header, the metered words of each kind equal the encodings' lengths, and
// the broadcast lags C.m by less than the factor c (checkLag). It replays
// each tracker from its first message, the concurrent schedule's included.
// "exact" and "sketch" are the k = 4 configurations, on the stream with the
// ends, and the k = 8 ones are "k8-…". Both "freq" forms must be replayed,
// the two-word one where a key near math.MaxUint64 is in the stream.
func TestMessageReplay(t *testing.T) {
	for _, c := range []struct {
		name string
		lawConfig
	}{
		{"exact", lawConfig{4, false, true}},
		{"sketch", lawConfig{4, true, true}},
		{"k8-exact", lawConfig{8, false, false}},
		{"k8-sketch", lawConfig{8, true, false}},
		{"k8-exact-ends", lawConfig{8, false, true}},
		{"k8-sketch-ends", lawConfig{8, true, true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var replays []*msgReplay
			replay := func(tb testing.TB, ctr core.Tracker) enginetest.Watch {
				r := newMsgReplay(tb, ctr.(*Tracker))
				replays = append(replays, r)
				return enginetest.Watch{Tap: r.tap, Check: r.check}
			}
			checkRounds(t, enginetest.RunLaws(t, c.config(), replay))
			var freq [3]int
			for _, r := range replays {
				freq[1] += r.freqWords[1]
				freq[2] += r.freqWords[2]
			}
			if freq[1] == 0 || c.ends && freq[2] == 0 {
				t.Fatalf("%d one-word and %d two-word \"freq\" reports: both forms must be replayed", freq[1], freq[2])
			}
			t.Logf("%d one-word and %d two-word \"freq\" reports", freq[1], freq[2])
		})
	}
}
