package allq

import (
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/core/engine/enginetest"
	"disttrack/internal/oracle"
)

// checkDeltaLaw asserts that every node report carried exactly thrNode, the
// count the coordinator adds for it. A build sets s_u to u's exact count, and
// every later arrival in I_u either still waits in some site's δ_j[u] or was
// reported in a batch of thrNode, so with the exact store s_u + Σ_j δ_j[u] is
// |A ∩ I_u| for every node of the live tree (truth counts A). In either mode
// every δ_j[u] lies in [0, thrNode): a counter rises one arrival at a time
// and reports when it reaches thrNode. truth is nil in sketch mode, whose
// build counts are estimates.
func checkDeltaLaw(tb testing.TB, label string, tr *Tracker, truth *oracle.Counter) {
	tb.Helper()
	p := tr.p
	if tr.Bootstrapping() {
		return
	}
	for _, u := range collectNodes(p.root) {
		sum := u.s
		for j, s := range p.sites {
			d := s.delta[u.id]
			if d < 0 || d >= p.thrNode {
				tb.Fatalf("%s: |A|=%d: site %d holds δ = %d for node [%d, %d), outside [0, %d)",
					label, tr.TrueTotal(), j, d, u.lo, u.hi, p.thrNode)
			}
			sum += d
		}
		if truth == nil {
			continue
		}
		if want := truth.CountRange(u.lo, u.hi); sum != want {
			tb.Fatalf("%s: |A|=%d: node [%d, %d): s + Σδ = %d + %d, want |A ∩ I| = %d",
				label, tr.TrueTotal(), u.lo, u.hi, u.s, sum-u.s, want)
		}
	}
}

// TestDeltaLaw runs checkDeltaLaw through the engine's law schedules
// (enginetest.RunLaw: every Feed and FeedLocalBatch call, B ∈ {1, 16, 512},
// round robin and one-site bursts, a checkpoint restore, a Reconfigure grow
// and shrink, and one goroutine per site under -race), in both store modes.
func TestDeltaLaw(t *testing.T) {
	for _, mode := range []struct {
		name   string
		sketch bool
	}{{"exact", false}, {"sketch", true}} {
		t.Run(mode.name, func(t *testing.T) {
			maxThr := int64(0)
			cfg := enginetest.Config{
				New: func(tb testing.TB) core.Tracker {
					tr, err := New(Config{K: 4, Eps: 0.1, Sketch: mode.sketch})
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
				if !tr.Bootstrapping() {
					maxThr = max(maxThr, tr.p.thrNode)
				}
			})
			// 32,000 items: over three doublings past the 2,560-item
			// bootstrap, so a node report batches several arrivals.
			for _, ctr := range fed {
				if tr := ctr.(*Tracker); tr.Rounds() < 3 || tr.Meter().Kind("nd").Msgs == 0 {
					t.Fatalf("%d rounds, %d node reports: too short a stream", tr.Rounds(), tr.Meter().Kind("nd").Msgs)
				}
			}
			if maxThr < 4 {
				t.Fatalf("largest node batch %d: the law was never tested on batched reports", maxThr)
			}
		})
	}
}
