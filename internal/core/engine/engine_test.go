package engine_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

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

	onEscalate func() // if set, runs first in every OnEscalate
}

// ApplyBoot holds the arrival as pending until its escalation forwards it. If
// another site's escalation ends bootstrap in between, the arrival reaches
// OnEscalate instead of OnBootEscalate and simply stays pending for the
// site's next report — it must be counted here, or it is counted nowhere.
func (p *countPolicy) ApplyBoot(site int, _ uint64) { p.pending[site]++ }

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
	if p.onEscalate != nil {
		p.onEscalate()
	}
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

// OnReconfigure folds the removed sites' pending counts into site 0, as
// the engine folds their exact counts, so the mock runs the suite's
// membership law too. The mock has no round to restart.
func (p *countPolicy) OnReconfigure(oldK, newK int) {
	if newK < oldK {
		for _, c := range p.pending[newK:] {
			p.pending[0] += c
		}
		p.pending = p.pending[:newK]
		return
	}
	p.pending = append(p.pending, make([]int64, newK-oldK)...)
}

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
	p.bootTarget = int64(math.Ceil(float64(k) / eps)) // the policy's own target: ⌈k/ε⌉
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

// TestCoalesceSavesAcquisitions pins the slow path's lock-traffic identity on
// a threshold-dense batched stream: acquisitions + saved == escalations, and
// the only saved acquisitions are bootstrap forwards drained under the hold
// of the forward before them (here the 2 after the first of ⌈k/ε⌉ = 3). Every
// tracking crossing pays its own acquisition, as in the sequential Feed
// replay of the same stream, which drains nothing.
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
	if saved != 2 || m.CoalescedRuns.Value() != 0 {
		t.Fatalf("saved=%d coalescedRuns=%d, want the 2 drained bootstrap forwards and no runs",
			saved, m.CoalescedRuns.Value())
	}
	if acq+saved != esc {
		t.Fatalf("acquisitions %d + saved %d != escalations %d", acq, saved, esc)
	}
}

// TestSlowPathBudgets pins what bounds one slow-path hold, by input alone.
// The item budget (8,192 drained arrivals) bounds only a bootstrap batch:
// at k = 2 and ε = 2⁻¹⁴ the bootstrap forwards ⌈k/ε⌉ = 32,768 arrivals, and
// one batch of exactly that many is forwarded in holds of 8,193, 8,193,
// 8,193 and 8,189 (the handoff ends the last) — 4 acquisitions. A tracking
// batch drains nothing: one batch at one site of the count policy, crossing
// exactly every thr items, pays exactly one acquisition per crossing.
func TestSlowPathBudgets(t *testing.T) {
	boot := newCountTracker(t, 2, 1.0/(1<<14), 8)
	m := coalesceMetrics(boot)
	boot.FeedLocalBatch(0, make([]uint64, 1<<15))
	if boot.Bootstrapping() {
		t.Fatal("bootstrap batch did not reach the handoff")
	}
	esc, acq, saved := m.Escalations.Value(), m.SlowPathAcquires.Value(), m.SavedAcquires.Value()
	if esc != 1<<15 || acq != 4 || acq+saved != esc {
		t.Fatalf("bootstrap batch: escalations %d, acquisitions %d, saved %d; want %d escalations in 4 acquisitions",
			esc, acq, saved, 1<<15)
	}

	for _, tc := range []struct {
		thr         int64
		n           int
		escalations int64
	}{
		{thr: 8, n: 16384, escalations: 2048},
		{thr: 1000, n: 100000, escalations: 100},
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
		if esc != tc.escalations || acq != esc || saved != 0 {
			t.Fatalf("thr=%d, %d items: escalations %d, acquisitions %d, saved %d; want %d escalations, one acquisition each",
				tc.thr, tc.n, esc, acq, saved, tc.escalations)
		}
	}
}

// TestBootstrapBatchDrain pins the bootstrap drain: one batch of B arrivals
// at one site, fed while the engine bootstraps, is forwarded under as few
// slow-path holds as the item budget allows — one for B ≤ 8,193 (the entry
// arrival plus 8,192 drained), so B−1 acquisitions are saved. The hold ends
// at the handoff: the rest of a batch that crosses it is tracked like any
// batch, one acquisition per crossing. Version and every meter count equal
// a sequential Feed of the same arrivals, so the drain changes lock traffic
// only.
func TestBootstrapBatchDrain(t *testing.T) {
	for _, tc := range []struct {
		name     string
		eps      float64 // bootstrap target ⌈k/ε⌉ at k = 2
		b        int
		boot     bool // still bootstrapping after the batch
		acquires int64
	}{
		{"in-bootstrap", 0.01, 100, true, 1},             // target 200
		{"through-handoff", 0.01, 300, false, 13},        // 200 forwards in one hold, then 12 crossings at thr=8
		{"over-item-budget", 0.0002, 9000, true, 2},      // target 10,000: 8,193 + 807 arrivals
		{"handoff-on-last-arrival", 0.01, 200, false, 1}, // the handoff ends the batch
		{"long-after-handoff", 0.01, 2000, false, 226},   // 200 forwards in one hold, then 225 crossings
	} {
		t.Run(tc.name, func(t *testing.T) {
			xs := make([]uint64, tc.b)
			for i := range xs {
				xs[i] = uint64(i)
			}
			seq := newCountTracker(t, 2, tc.eps, 8)
			for _, x := range xs {
				seq.Feed(0, x)
			}
			bat := newCountTracker(t, 2, tc.eps, 8)
			m := coalesceMetrics(bat)
			bat.FeedLocalBatch(0, xs)

			if bat.Bootstrapping() != tc.boot || seq.Bootstrapping() != tc.boot {
				t.Fatalf("bootstrapping after the batch: batched %v, sequential %v, want %v",
					bat.Bootstrapping(), seq.Bootstrapping(), tc.boot)
			}
			esc, acq, saved := m.Escalations.Value(), m.SlowPathAcquires.Value(), m.SavedAcquires.Value()
			if acq != tc.acquires || acq+saved != esc {
				t.Fatalf("%d escalations in %d acquisitions (%d saved), want %d acquisitions",
					esc, acq, saved, tc.acquires)
			}
			if bat.Version() != seq.Version() || uint64(esc) != seq.Version() {
				t.Fatalf("Version: batched %d, sequential %d, escalations %d", bat.Version(), seq.Version(), esc)
			}
			if !reflect.DeepEqual(bat.Meter().State(), seq.Meter().State()) {
				t.Fatalf("meters differ: batched %+v, sequential %+v", bat.Meter().State(), seq.Meter().State())
			}
			if bat.TrueTotal() != int64(tc.b) || bat.SiteCount(0) != int64(tc.b) || bat.p.total != seq.p.total {
				t.Fatalf("batched total %d, site 0 %d, coordinator %d; sequential coordinator %d",
					bat.TrueTotal(), bat.SiteCount(0), bat.p.total, seq.p.total)
			}
		})
	}
}

// TestSlowPathHoldSampled pins the hold timing rate: with the metrics wired
// from the start, the SlowPathHold histogram times the 1st, 65th, 129th, …
// slow-path hold, so after every arrival its count is exactly
// ⌈SlowPathAcquires/64⌉, while QuiesceHold times every Quiesce. Sequential
// Feed on the count policy pays one acquisition per escalation: 3 bootstrap
// forwards, then a crossing every 8th arrival, 200 in all — not a multiple
// of 64, so an untimed first hold shows as well as an unsampled one.
func TestSlowPathHoldSampled(t *testing.T) {
	tr := newCountTracker(t, 2, 0.9, 8) // eps 0.9: bootstrap ends after ⌈k/ε⌉=3 items
	reg := obs.NewRegistry()
	m := &engine.Metrics{
		SlowPathAcquires: reg.NewCounter("test_slow_path_acquires_total", "test"),
		SlowPathHold:     reg.NewHistogram("test_slow_path_hold_seconds", "test", obs.DurationBuckets()),
		QuiesceHold:      reg.NewHistogram("test_quiesce_hold_seconds", "test", obs.DurationBuckets()),
	}
	tr.SetMetrics(m)
	const n = 3 + 8*197
	quiesces := int64(0)
	for i := 0; i < n; i++ {
		tr.Feed(0, uint64(i))
		acq := m.SlowPathAcquires.Value()
		if got, want := m.SlowPathHold.Count(), (acq+63)/64; got != want {
			t.Fatalf("after %d arrivals and %d acquisitions: %d holds timed, want %d", i+1, acq, got, want)
		}
		if i%100 == 0 {
			tr.Quiesce(func() {})
			quiesces++
		}
	}
	if acq := m.SlowPathAcquires.Value(); acq != 200 {
		t.Fatalf("%d slow-path acquisitions, want 200", acq)
	}
	if got := m.SlowPathHold.Count(); got != 4 {
		t.Fatalf("%d slow-path holds timed, want ⌈200/64⌉ = 4", got)
	}
	if got := m.QuiesceHold.Count(); got != quiesces {
		t.Fatalf("%d Quiesce holds timed, want all %d", got, quiesces)
	}
}

// TestCascadesCounted pins the cascade timing on a scripted sequence: the
// bootstrap handoff calls All, and so does every third report after it, while
// a Quiesce (which holds every site without All) is no cascade. CascadeHold
// times every cascade and nothing else, so its count is exact.
func TestCascadesCounted(t *testing.T) {
	tr := newCountTracker(t, 2, 0.9, 8) // eps 0.9: bootstrap ends after ⌈k/ε⌉=3 items
	reg := obs.NewRegistry()
	m := &engine.Metrics{
		SlowPathAcquires: reg.NewCounter("test_slow_path_acquires_total", "test"),
		CascadeHold:      reg.NewHistogram("test_cascade_hold_seconds", "test", obs.DurationBuckets()),
	}
	tr.SetMetrics(m)
	reports := 0
	tr.p.onEscalate = func() {
		if reports++; reports%3 == 0 {
			tr.All()
			tr.All() // a second call in the same hold is no second cascade
		}
	}
	for i := 0; i < 3+8*30; i++ {
		tr.Feed(i%2, uint64(i))
		if i%50 == 0 {
			tr.Quiesce(func() { tr.All() })
		}
	}
	if acq := m.SlowPathAcquires.Value(); acq != 3+30 {
		t.Fatalf("%d slow-path acquisitions, want 33", acq)
	}
	if got, want := m.CascadeHold.Count(), int64(1+30/3); got != want {
		t.Fatalf("%d cascade holds timed, want %d (the handoff and every third report)", got, want)
	}
}

// TestReportHoldsOnlyItsSite pins the two-tier slow-path hold. While a
// report at site 0 is blocked inside OnEscalate, an escalation-free batch at
// site 1 completes: a report holds escMu and its own site only. Once the
// policy has called All — as every cascade does — the same batch waits until
// the hold ends.
func TestReportHoldsOnlyItsSite(t *testing.T) {
	for _, all := range []bool{false, true} {
		t.Run(fmt.Sprintf("all=%v", all), func(t *testing.T) {
			tr := newCountTracker(t, 2, 0.9, 8)
			for i := 0; i < 3; i++ { // bootstrap ends after ⌈k/ε⌉=3 items
				tr.Feed(0, 0)
			}
			entered, release := make(chan struct{}), make(chan struct{})
			tr.p.onEscalate = func() {
				if all {
					tr.All()
				}
				close(entered)
				<-release
			}
			reported := make(chan struct{})
			go func() {
				tr.FeedLocalBatch(0, make([]uint64, 8)) // the 8th arrival crosses thr
				close(reported)
			}()
			<-entered
			fed := make(chan struct{})
			go func() {
				tr.FeedLocalBatch(1, make([]uint64, 4)) // below thr: no escalation
				close(fed)
			}()
			var err string
			if all {
				select {
				case <-fed:
					err = "site 1's batch completed inside a hold that called All"
				case <-time.After(50 * time.Millisecond):
				}
			} else {
				select {
				case <-fed:
				case <-time.After(10 * time.Second):
					err = "site 1's batch did not complete while site 0 reported"
				}
			}
			close(release)
			<-reported
			<-fed
			if err != "" {
				t.Fatal(err)
			}
			if tr.p.flushes != 1 || tr.SiteCount(1) != 4 {
				t.Fatalf("flushes %d, site 1 count %d; want 1 and 4", tr.p.flushes, tr.SiteCount(1))
			}
		})
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
