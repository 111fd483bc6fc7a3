package hh

import (
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/core/engine/enginetest"
)

// TestEngineConformance runs the shared engine conformance suite
// (sequential/batch equivalence, concurrent -race stress, meter
// conservation — see package enginetest) over every site-store mode, with
// the §2.1 accuracy contract and state-equality checks plugged in.
func TestEngineConformance(t *testing.T) {
	const (
		k   = 4
		eps = 0.05
		phi = 0.1
	)
	for _, tc := range []struct {
		name string
		mode Mode
	}{
		{"exact", ModeExact},
		{"sketch", ModeSketch},
		{"mgsketch", ModeMGSketch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := enginetest.Config{
				New: func(tb testing.TB) core.Tracker {
					tr, err := New(Config{K: k, Eps: eps, Mode: tc.mode})
					if err != nil {
						tb.Fatal(err)
					}
					return tr
				},
				K:       k,
				PerSite: 10000,
				Query: func(tb testing.TB, tr core.Tracker) {
					_ = tr.(*Tracker).HeavyHitters(phi)
				},
				CheckEquiv: func(t *testing.T, a, b core.Tracker) {
					ta, tb := a.(*Tracker), b.(*Tracker)
					ha, hb := ta.HeavyHitters(phi), tb.HeavyHitters(phi)
					if len(ha) != len(hb) {
						t.Fatalf("heavy hitter sets diverged: %d vs %d", len(ha), len(hb))
					}
					for i := range ha {
						if ha[i] != hb[i] {
							t.Fatalf("heavy hitter %d diverged: %d vs %d", i, ha[i], hb[i])
						}
						if ta.EstFrequency(ha[i]) != tb.EstFrequency(hb[i]) {
							t.Fatalf("EstFrequency(%d) diverged", ha[i])
						}
					}
				},
			}
			if tc.mode == ModeExact {
				// The sketch modes' accuracy contract is covered by the
				// sequential tests; under concurrency they pin conservation
				// and underestimation only (the suite's built-in checks).
				cfg.CheckFinal = checkHHContract
			}
			enginetest.Run(t, cfg)
		})
	}
}

// checkHHContract asserts the paper's invariants (2)–(3) and the
// classification guarantee against exact ground truth, with slack 2k words
// for arrivals that straddle concurrent escalations (see package engine).
func checkHHContract(t *testing.T, label string, ctr core.Tracker, streams [][]uint64) {
	t.Helper()
	const (
		eps = 0.05
		phi = 0.1
	)
	tr := ctr.(*Tracker)
	k := len(streams)
	n := int64(0)
	truth := make(map[uint64]int64)
	for _, xs := range streams {
		n += int64(len(xs))
		for _, x := range xs {
			truth[x]++
		}
	}
	if got := tr.TrueTotal(); got != n {
		t.Fatalf("%s: TrueTotal = %d, want %d", label, got, n)
	}
	if tr.Rounds() < 2 {
		t.Fatalf("%s: %d rounds: the contract was never checked in the tracking phase", label, tr.Rounds())
	}
	slack := eps*float64(n)/3 + float64(2*k)
	if est := tr.EstTotal(); est > n || float64(n-est) > slack {
		t.Errorf("%s: EstTotal = %d, want in [%d - %g, %d]", label, est, n, slack, n)
	}
	for x, f := range truth {
		est := tr.EstFrequency(x)
		if est > f {
			t.Fatalf("%s: EstFrequency(%d) = %d overestimates true %d", label, x, est, f)
		}
		if float64(f-est) > slack {
			t.Errorf("%s: EstFrequency(%d) = %d, staleness %d exceeds %g", label, x, est, f-est, slack)
		}
	}
	hits := make(map[uint64]bool)
	for _, x := range tr.HeavyHitters(phi) {
		hits[x] = true
	}
	lo := (phi - eps) * float64(n)
	hi := (phi + eps) * float64(n)
	for x, f := range truth {
		if float64(f) >= hi && !hits[x] {
			t.Errorf("%s: item %d with freq %d >= %g missing from heavy hitters", label, x, f, hi)
		}
		if float64(f) < lo-float64(2*k) && hits[x] {
			t.Errorf("%s: item %d with freq %d < %g wrongly a heavy hitter", label, x, f, lo)
		}
	}
}
