package quantile

import (
	"strings"
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/core/engine/enginetest"
	"disttrack/internal/oracle"
)

// checkDeltaLaw asserts that every interval and total report carried
// exactly its threshold, the count the coordinator adds for it. A round
// build and a split set ivCount to exact counts and newRound sets totEst to
// the exact |A|; every later arrival either still waits in a site's delta or
// was reported in a batch of thrIv (thrTot). So with the exact store
// ivCount[i] + Σ_j ivDelta_j[i] is the exact count of interval i, and
// totEst + Σ_j totDelta_j is |A| (truth counts A). In either mode every
// delta lies in [0, threshold): a counter rises one arrival at a time and
// reports when it reaches its threshold. truth is nil in sketch mode, whose
// build counts are estimates.
func checkDeltaLaw(tb testing.TB, label string, tr *Tracker, truth *oracle.Counter) {
	tb.Helper()
	p := tr.p
	if tr.Bootstrapping() {
		return
	}
	tot := p.totEst
	for j, s := range p.sites {
		if s.totDelta < 0 || s.totDelta >= p.thrTot {
			tb.Fatalf("%s: |A|=%d: site %d holds total delta %d, outside [0, %d)", label, tr.TrueTotal(), j, s.totDelta, p.thrTot)
		}
		tot += s.totDelta
	}
	if truth != nil && tot != tr.TrueTotal() {
		tb.Fatalf("%s: totEst + Σ totDelta = %d + %d, want |A| = %d", label, p.totEst, tot-p.totEst, tr.TrueTotal())
	}
	for i, c := range p.ivCount {
		sum := c
		for j, s := range p.sites {
			d := s.ivDelta[i]
			if d < 0 || d >= p.thrIv {
				tb.Fatalf("%s: |A|=%d: site %d holds delta %d for interval %d, outside [0, %d)", label, tr.TrueTotal(), j, d, i, p.thrIv)
			}
			sum += d
		}
		if truth == nil {
			continue
		}
		if lo, hi := p.ivBounds(i); sum != truth.CountRange(lo, hi) {
			tb.Fatalf("%s: |A|=%d: interval %d [%d, %d): ivCount + Σ ivDelta = %d + %d, want its exact count %d",
				label, tr.TrueTotal(), i, lo, hi, c, sum-c, truth.CountRange(lo, hi))
		}
	}
}

// roundLag follows one tracker's rounds from call to call at rest and
// asserts the round-lag law: a round opened because |A| doubled (not by a
// Reconfigure, which changes k) opens with m′ ∈ [2m, 2m + k·thrTot), m and
// thrTot the ending round's. totEst only rises, by thrTot a report, and the round ends
// at the report that brings it to 2m, so totEst < 2m + thrTot then; every
// other site holds under thrTot unreported. m′ is the exact |A| with the
// exact store.
type roundLag struct {
	tr        core.Tracker
	k, rounds int
	m, thrTot int64
	checked   map[string]int // rounds checked, by schedule
	lates     int            // rounds that opened past 2m
}

func (l *roundLag) check(tb testing.TB, label string, tr *Tracker) {
	tb.Helper()
	p := tr.p
	if label == "concurrent" {
		return // one call at rest: no round change to see
	}
	if _, ok := l.checked[tb.Name()]; !ok {
		l.checked[tb.Name()] = 0
	}
	if tr.Bootstrapping() {
		return
	}
	if l.tr == tr && l.k == tr.K() && l.rounds > 0 && tr.Rounds() != l.rounds {
		if tr.Rounds() != l.rounds+1 {
			tb.Fatalf("%s: |A|=%d: %d rounds in one call", label, tr.TrueTotal(), tr.Rounds()-l.rounds)
		}
		if lag := p.m - 2*l.m; lag < 0 || lag >= int64(tr.K())*l.thrTot {
			tb.Fatalf("%s: round %d opened at m′ = %d after m = %d: lag %d outside [0, k·thrTot = %d)",
				label, tr.Rounds(), p.m, l.m, lag, int64(tr.K())*l.thrTot)
		} else if lag > 0 {
			l.lates++
		}
		l.checked[tb.Name()]++
	}
	l.tr, l.k, l.rounds, l.m, l.thrTot = tr, tr.K(), tr.Rounds(), p.m, p.thrTot
}

// TestDeltaLaw runs checkDeltaLaw through the engine's law schedules
// (enginetest.RunLaw: every Feed and FeedLocalBatch call, B ∈ {1, 16, 512},
// round robin and one-site bursts, a checkpoint restore, a Reconfigure grow
// and shrink, and one goroutine per site under -race), in both store modes;
// with the exact store it also checks the round-lag law (roundLag).
func TestDeltaLaw(t *testing.T) {
	for _, mode := range []struct {
		name   string
		sketch bool
	}{{"exact", false}, {"sketch", true}} {
		t.Run(mode.name, func(t *testing.T) {
			maxThr := int64(0)
			lag := roundLag{checked: map[string]int{}}
			cfg := enginetest.Config{
				New: func(tb testing.TB) core.Tracker {
					tr, err := New(Config{K: 4, Eps: 0.1, Phis: []float64{0.5, 0.99}, Sketch: mode.sketch})
					if err != nil {
						tb.Fatal(err)
					}
					return tr
				},
				K:      4,
				Stream: enginetest.DistinctUniform,
			}
			fed := enginetest.RunLaw(t, cfg, func(tb testing.TB, label string, ctr core.Tracker, truth *oracle.Counter) {
				tr := ctr.(*Tracker)
				if mode.sketch {
					truth = nil
				}
				checkDeltaLaw(tb, label, tr, truth)
				if !mode.sketch {
					lag.check(tb, label, tr)
				}
				if !tr.Bootstrapping() {
					maxThr = max(maxThr, tr.p.thrIv)
				}
			})
			// 32,000 items: over four doublings past the 1,280-item
			// bootstrap, so a report batches several arrivals.
			for _, ctr := range fed {
				tr := ctr.(*Tracker)
				if tr.Rounds() < 3 || tr.Meter().Kind("iv").Msgs == 0 || tr.Meter().Kind("tot").Msgs == 0 {
					t.Fatalf("%d rounds, %d interval and %d total reports: too short a stream",
						tr.Rounds(), tr.Meter().Kind("iv").Msgs, tr.Meter().Kind("tot").Msgs)
				}
			}
			if maxThr < 4 {
				t.Fatalf("largest interval batch %d: the law was never tested on batched reports", maxThr)
			}
			// Round robin keeps the sites level, so a round can open at
			// exactly 2m there; one-site bursts leave the others behind.
			burst := false
			for sched, n := range lag.checked {
				if n < 2 {
					t.Fatalf("%s: round-lag law checked on %d rounds: too few", sched, n)
				}
				burst = burst || strings.HasSuffix(sched, "-burst")
			}
			if burst && lag.lates == 0 {
				t.Fatalf("no round opened past 2m: the round-lag law was never tested on a late round")
			}
		})
	}
}
