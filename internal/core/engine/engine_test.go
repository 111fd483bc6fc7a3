package engine_test

import (
	"fmt"
	"testing"

	"disttrack/internal/ckpt"
	"disttrack/internal/core"
	"disttrack/internal/core/engine"
	"disttrack/internal/core/engine/enginetest"
	"disttrack/internal/obs"
)

// countPolicy is the smallest useful engine policy: each site accumulates a
// pending arrival count and reports it to the coordinator (one "cnt"
// message) whenever it reaches a fixed threshold. It exists to conformance-
// test the engine skeleton itself, independent of the three real protocols,
// and doubles as the reference example for authoring a policy.
type countPolicy struct {
	eng        *engine.Engine
	thr        int64
	bootTarget int64

	pending []int64 // per-site unreported arrivals (engine site locks guard)
	total   int64   // coordinator's count — an underestimate of TrueTotal
	flushes int     // completed "cnt" reports (the mock's "rounds")
}

// ApplyBoot holds the arrival as pending until its escalation forwards it. If
// another site's escalation ends bootstrap in between, the arrival reaches
// OnEscalate instead of OnBootEscalate and simply stays pending for the
// site's next report — it must be counted here, or it is counted nowhere.
func (p *countPolicy) ApplyBoot(site int, _ uint64) { p.pending[site]++ }

func (p *countPolicy) ApplyLocal(site int, _ uint64) bool {
	p.pending[site]++
	return p.pending[site] >= p.thr
}

func (p *countPolicy) ApplyRun(site int, xs []uint64) (consumed int, crossed bool) {
	for i := range xs {
		p.pending[site]++
		if p.pending[site] >= p.thr {
			return i + 1, true
		}
	}
	return len(xs), false
}

func (p *countPolicy) OnBootEscalate(site int, _ uint64) (done bool) {
	p.pending[site]--
	p.total++
	return p.total >= p.bootTarget
}

func (p *countPolicy) OnBootDone() {}

func (p *countPolicy) OnEscalate(site int, _ uint64) {
	if p.pending[site] >= p.thr {
		p.eng.Meter().Up(site, "cnt", 1)
		p.total += p.pending[site]
		p.pending[site] = 0
		p.flushes++
	}
}

// Checkpoint support, so the mock runs the suite's round-trip law too.
func (p *countPolicy) EncodeState(enc *ckpt.Encoder) {
	enc.I64s(p.pending)
	enc.I64(p.total)
	enc.I64(int64(p.flushes))
}

func (p *countPolicy) DecodeState(dec *ckpt.Decoder) error {
	pending := dec.I64s()
	total := dec.I64()
	flushes := int(dec.I64())
	if err := dec.Err(); err != nil {
		return err
	}
	if len(pending) != len(p.pending) {
		return fmt.Errorf("countPolicy: %d sites in checkpoint, want %d", len(pending), len(p.pending))
	}
	p.pending = pending
	p.total = total
	p.flushes = flushes
	return nil
}

var _ engine.CheckpointPolicy = (*countPolicy)(nil)

// countTracker assembles the mock policy into the same shape as the real
// trackers: engine embed for the ingest surface, plus the stats methods
// core.Tracker requires.
type countTracker struct {
	*engine.Engine
	p *countPolicy
}

var _ core.Tracker = (*countTracker)(nil)

func (t *countTracker) EstTotal() int64   { return t.p.total }
func (t *countTracker) Rounds() int       { return t.p.flushes }
func (t *countTracker) SiteSpace(int) int { return 1 }

func newCountTracker(tb testing.TB, k int, eps float64, thr int64) *countTracker {
	p := &countPolicy{thr: thr, pending: make([]int64, k)}
	eng, err := engine.New(engine.Config{Name: "count", K: k, Eps: eps}, p)
	if err != nil {
		tb.Fatal(err)
	}
	p.eng = eng
	p.bootTarget = eng.BootTarget()
	return &countTracker{Engine: eng, p: p}
}

// TestEngineConformanceMockPolicy runs the shared conformance suite over
// the minimal policy: everything the suite checks here (batch equivalence,
// versions, concurrent conservation, meter consistency) is engine behavior,
// with no protocol logic to hide behind.
func TestEngineConformanceMockPolicy(t *testing.T) {
	const (
		k   = 4
		eps = 0.1
		thr = 64
	)
	enginetest.Run(t, enginetest.Config{
		New: func(tb testing.TB) core.Tracker {
			return newCountTracker(tb, k, eps, thr)
		},
		K:       k,
		PerSite: 6000,
		CheckEquiv: func(t *testing.T, a, b core.Tracker) {
			// Everything observable about the mock is engine state, already
			// compared by the suite; re-assert the policy-side flush count.
			if fa, fb := a.Rounds(), b.Rounds(); fa != fb {
				t.Fatalf("flush counts diverged: %d vs %d", fa, fb)
			}
		},
		CheckFinal: func(t *testing.T, label string, tr core.Tracker, streams [][]uint64) {
			// Conservation: the coordinator total plus every site's pending
			// count must be exactly the items ingested.
			ct := tr.(*countTracker)
			sum := ct.p.total
			for _, pend := range ct.p.pending {
				sum += pend
			}
			if sum != ct.TrueTotal() {
				t.Fatalf("%s: total %d + pending = %d, want %d",
					label, ct.p.total, sum, ct.TrueTotal())
			}
		},
	})
}

// coalesceMetrics wires the slow-path lock-traffic counters onto tr.
func coalesceMetrics(tr *countTracker) *engine.Metrics {
	reg := obs.NewRegistry()
	m := &engine.Metrics{
		Escalations:      reg.NewCounter("test_escalations_total", "test"),
		SlowPathAcquires: reg.NewCounter("test_slow_path_acquires_total", "test"),
		CoalescedRuns:    reg.NewCounter("test_coalesced_runs_total", "test"),
		SavedAcquires:    reg.NewCounter("test_saved_acquires_total", "test"),
	}
	tr.SetMetrics(m)
	return m
}

// burst feeds threshold-dense batches (thr=8 on the count policy, chunks of
// 512) so every batch spans dozens of crossings: through FeedLocalBatch, or
// item by item through Feed when seq is set, and returns the metrics.
func burst(t *testing.T, tr *countTracker, seq bool) *engine.Metrics {
	t.Helper()
	m := coalesceMetrics(tr)
	xs := make([]uint64, 512)
	for i := range xs {
		xs[i] = uint64(i)
	}
	for r := 0; r < 8; r++ {
		for j := 0; j < tr.K(); j++ {
			if !seq {
				tr.FeedLocalBatch(j, xs)
				continue
			}
			for _, x := range xs {
				tr.Feed(j, x)
			}
		}
	}
	return m
}

// TestCoalesceSavesAcquisitions pins the point of the coalesced slow path:
// on a threshold-dense batched stream, escalations vastly outnumber lock
// acquisitions (one hold absorbs a burst), while the identity counters
// still balance — acquisitions + saved crossings == escalations. The
// reference is a sequential Feed replay of the same stream, which pays one
// acquisition per escalation and coalesces nothing.
func TestCoalesceSavesAcquisitions(t *testing.T) {
	seq := burst(t, newCountTracker(t, 2, 0.9, 8), true) // eps 0.9: bootstrap ends after ⌈k/ε⌉=3 items
	if seq.SavedAcquires.Value() != 0 || seq.CoalescedRuns.Value() != 0 {
		t.Fatalf("sequential Feed coalesced: saved=%d coalescedRuns=%d",
			seq.SavedAcquires.Value(), seq.CoalescedRuns.Value())
	}
	if esc, acq := seq.Escalations.Value(), seq.SlowPathAcquires.Value(); esc != acq {
		t.Fatalf("escalations %d != acquisitions %d on sequential Feed", esc, acq)
	}

	m := burst(t, newCountTracker(t, 2, 0.9, 8), false)
	esc, acq, saved := m.Escalations.Value(), m.SlowPathAcquires.Value(), m.SavedAcquires.Value()
	if esc != seq.Escalations.Value() {
		t.Fatalf("batched escalations %d != sequential %d", esc, seq.Escalations.Value())
	}
	if saved == 0 || m.CoalescedRuns.Value() == 0 {
		t.Fatalf("coalescing never engaged: saved=%d coalescedRuns=%d", saved, m.CoalescedRuns.Value())
	}
	if acq+saved != esc {
		t.Fatalf("acquisitions %d + saved %d != escalations %d", acq, saved, esc)
	}
	if acq*2 > esc {
		t.Fatalf("burst stream still paid %d acquisitions for %d escalations", acq, esc)
	}
}

// TestSlowPathBudgets pins the two budgets that bound one slow-path hold —
// 8,192 drained arrivals and 64 crossings — by input alone: one batch of
// more than 8,192 items and more than 64 crossings at one site of the count
// policy (crossings exactly every thr items), asserting the exact number of
// acquisitions each budget implies.
//
//   - thr=8, 16,384 items: 2,048 crossings, 63 runs of 8 items per hold, so
//     the crossing budget ends every hold: 2,048/64 = 32 acquisitions.
//   - thr=1000, 100,000 items: 100 crossings. A hold opened at crossing c
//     drains 8,192 items (crossings c+1..c+8, then 192 items short of the
//     next), so the item budget ends it after 9 crossings: holds open at
//     crossings 1, 10, …, 91 and 100 — 12 acquisitions.
func TestSlowPathBudgets(t *testing.T) {
	for _, tc := range []struct {
		thr         int64
		n           int
		escalations int64
		acquires    int64
	}{
		{thr: 8, n: 16384, escalations: 2048, acquires: 32},
		{thr: 1000, n: 100000, escalations: 100, acquires: 12},
	} {
		tr := newCountTracker(t, 2, 0.9, tc.thr)
		for i := 0; i < 3; i++ { // bootstrap ends after ⌈k/ε⌉=3 items
			tr.Feed(0, 0)
		}
		if tr.Bootstrapping() {
			t.Fatal("still bootstrapping")
		}
		m := coalesceMetrics(tr)
		tr.FeedLocalBatch(0, make([]uint64, tc.n))
		esc, acq, saved := m.Escalations.Value(), m.SlowPathAcquires.Value(), m.SavedAcquires.Value()
		if esc != tc.escalations || acq != tc.acquires || acq+saved != esc {
			t.Fatalf("thr=%d, %d items: escalations %d, acquisitions %d, saved %d; want %d escalations in %d acquisitions",
				tc.thr, tc.n, esc, acq, saved, tc.escalations, tc.acquires)
		}
	}
}

// TestEngineValidation pins the constructor errors and the site bounds
// panic that the engine now produces on behalf of every tracker.
func TestEngineValidation(t *testing.T) {
	if _, err := engine.New(engine.Config{Name: "count", K: 0, Eps: 0.1}, &countPolicy{}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := engine.New(engine.Config{Name: "count", K: 1, Eps: 1.5}, &countPolicy{}); err == nil {
		t.Fatal("Eps=1.5 accepted")
	}
	tr := newCountTracker(t, 2, 0.1, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range site did not panic")
		}
	}()
	tr.Feed(2, 1)
}
