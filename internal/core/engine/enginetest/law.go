package enginetest

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/oracle"
)

// Law is a protocol invariant checked on a tracker at rest against truth,
// the exact multiset of every arrival fed so far. RunLaw calls it with no
// feed in flight: between sequential calls, and inside Quiesce once the
// concurrent feeders have finished.
type Law func(tb testing.TB, label string, tr core.Tracker, truth *oracle.Counter)

// RunLaw checks law on cfg's stream of K·PerSite items, from the first
// arrival to the last, as subtests of t:
//
//   - after every Feed, and after every FeedLocalBatch call with batches of
//     1, 16 and 512 dealt round robin and in bursts of 16 consecutive
//     batches to one site, through a checkpoint restored into a fresh
//     tracker at a third of the stream, a Reconfigure grow to K + 2 sites
//     at half and a shrink to max(K − 1, 1) at two thirds;
//   - Concurrent: one goroutine per site feeding its share through
//     FeedLocalBatch in random batches of up to 600, then law under Quiesce
//     (run it under -race).
//
// It returns every tracker it fed, last state included, so the caller can
// assert the stream reached what the law is about.
func RunLaw(t *testing.T, cfg Config, law Law) []core.Tracker {
	if cfg.PerSite == 0 {
		cfg.PerSite = 8000
	}
	var fed []core.Tracker
	items := genStream(cfg, cfg.K*cfg.PerSite, 71)
	for _, sched := range []struct {
		name         string
		batch, burst int // batch 0: Feed per item
	}{
		{"feed", 0, 1},
		{"B1", 1, 1},
		{"B16", 16, 1},
		{"B512", 512, 1},
		{"B16-burst", 16, 16},
		{"B512-burst", 512, 16},
	} {
		t.Run(sched.name, func(t *testing.T) {
			tr := runLawSchedule(t, cfg, law, items, sched.batch, sched.burst)
			fed = append(fed, tr)
		})
	}
	t.Run("Concurrent", func(t *testing.T) {
		streams := dealStreams(cfg, 73)
		tr := cfg.New(t)
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
		var all []uint64
		for _, xs := range streams {
			all = append(all, xs...)
		}
		truth := oracle.NewCounter(all)
		for _, x := range all {
			truth.Add(x)
		}
		tr.Quiesce(func() { law(t, "concurrent", tr, truth) })
		fed = append(fed, tr)
	})
	return fed
}

// runLawSchedule feeds items to a fresh tracker in batches of batch items
// (Feed per item when batch is 0), burst consecutive batches to one site,
// checking law before the first call, after every call and after each
// membership change and restore.
func runLawSchedule(t *testing.T, cfg Config, law Law, items []uint64, batch, burst int) core.Tracker {
	tr := cfg.New(t)
	truth := oracle.NewCounter(items)
	n := len(items)
	restored, grown, shrunk := false, false, false
	for c, i := 0, 0; i < n; c++ {
		switch {
		case !restored && i >= n/3:
			restored = true
			var buf bytes.Buffer
			if err := tr.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			tr = cfg.New(t)
			if err := tr.Restore(&buf); err != nil {
				t.Fatal(err)
			}
		case !grown && i >= n/2:
			grown = true
			if err := tr.Reconfigure(cfg.K + 2); err != nil {
				t.Fatal(err)
			}
		case !shrunk && i >= 2*n/3:
			shrunk = true
			if err := tr.Reconfigure(max(cfg.K-1, 1)); err != nil {
				t.Fatal(err)
			}
		}
		law(t, "at rest", tr, truth)
		site := (c / burst) % tr.K()
		xs := items[i:min(i+max(batch, 1), n)]
		if batch == 0 {
			tr.Feed(site, xs[0])
		} else {
			tr.FeedLocalBatch(site, xs)
		}
		for _, x := range xs {
			truth.Add(x)
		}
		i += len(xs)
	}
	law(t, "end", tr, truth)
	return tr
}
