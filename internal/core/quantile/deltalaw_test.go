package quantile

import (
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/core/engine/enginetest"
	"disttrack/internal/oracle"
)

// checkDeltaLaw asserts that every interval and total report carried
// exactly its threshold, the count the coordinator adds for it. A round
// build and a split set ivCount to exact counts and newRound sets totEst to
// the exact |A|; every later arrival either still waits in a site's delta or
// was reported in a batch of thrIv (thrTot). So in ModeExact
// ivCount[i] + Σ_j ivDelta_j[i] is the exact count of interval i, and
// totEst + Σ_j totDelta_j is |A| (truth counts A). In either mode every
// delta lies in [0, threshold): a counter rises one arrival at a time and
// reports when it reaches its threshold. truth is nil in ModeSketch, whose
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

// TestDeltaLaw runs checkDeltaLaw through the engine's law schedules
// (enginetest.RunLaw: every Feed and FeedLocalBatch call, B ∈ {1, 16, 512},
// round robin and one-site bursts, a checkpoint restore, a Reconfigure grow
// and shrink, and one goroutine per site under -race), in both store modes.
func TestDeltaLaw(t *testing.T) {
	for _, mode := range []struct {
		name string
		mode Mode
	}{{"exact", ModeExact}, {"sketch", ModeSketch}} {
		t.Run(mode.name, func(t *testing.T) {
			maxThr := int64(0)
			cfg := enginetest.Config{
				New: func(tb testing.TB) core.Tracker {
					tr, err := New(Config{K: 4, Eps: 0.1, Phis: []float64{0.5, 0.99}, Mode: mode.mode})
					if err != nil {
						tb.Fatal(err)
					}
					return tr
				},
				K:        4,
				Distinct: true,
			}
			fed := enginetest.RunLaw(t, cfg, func(tb testing.TB, label string, ctr core.Tracker, truth *oracle.Counter) {
				tr := ctr.(*Tracker)
				if mode.mode != ModeExact {
					truth = nil
				}
				checkDeltaLaw(tb, label, tr, truth)
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
		})
	}
}
