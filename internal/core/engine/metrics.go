package engine

import (
	"time"

	"disttrack/internal/obs"
)

// Metrics is the engine's observability surface: pre-resolved obs metrics
// the skeleton updates as it runs. Fast-path updates are counters only —
// one atomic add per Feed call or per escalation-free batch run, no
// locks, no map lookups (children are resolved by the caller, typically
// once per tenant) — pinned by the BenchmarkFeedBatch*Obs A/B against the
// uninstrumented benches. Duration histograms exist only on the slow path
// (escalations, Quiesce). A time.Now pair is not noise there: it costs about
// as much as a short hh or small-tenant escalation hold, so SlowPathHold
// times one hold in 64 (SlowPathAcquires counts them all), while
// QuiesceHold, around query work, times every Quiesce.
//
// Any field may be nil; the engine skips what is not wired. Attach with
// Engine.SetMetrics before concurrent use.
type Metrics struct {
	// Feeds counts fast-path arrivals applied (items, through Feed and
	// FeedLocalBatch alike, including bootstrap forwards).
	Feeds *obs.Counter
	// BatchRuns counts escalation-free runs consumed by FeedLocalBatch;
	// Feeds/BatchRuns is the realized amortization factor.
	BatchRuns *obs.Counter
	// BatchSplits counts runs that ended at a threshold crossing (the
	// batch split rate).
	BatchSplits *obs.Counter
	// Escalations counts slow-path entries (coordinator work), including
	// bootstrap forwards.
	Escalations *obs.Counter
	// SlowPathAcquires counts slow-path holds (escMu plus the escalating
	// site's lock, widened to every site when a cascade calls All).
	// SlowPathAcquires + SavedAcquires == Escalations always.
	SlowPathAcquires *obs.Counter
	// CoalescedRuns is never counted: no batch run is applied under a
	// slow-path hold. The field stays only because the repository benchmark
	// still wires it.
	CoalescedRuns *obs.Counter
	// SavedAcquires counts bootstrap forwards absorbed by an already-held
	// slow-path hold — each one a hold the one-per-escalation path would have
	// paid.
	SavedAcquires *obs.Counter
	// BootHandoffs counts bootstrap→tracking transitions (0 or 1 per
	// engine; across a fleet, how many tenants have left bootstrap).
	BootHandoffs *obs.Counter
	// SlowPathHold observes the seconds an escalation held escMu and its
	// site lock (plus every other site's, once a cascade called All) for the
	// 1st, 65th, 129th, … hold of the engine; its count is
	// ⌈SlowPathAcquires/64⌉ when both are wired from the start.
	SlowPathHold *obs.Histogram
	// QuiesceHold observes the seconds each Quiesce held the same locks —
	// the stall a consistent query imposes.
	QuiesceHold *obs.Histogram
}

// SetMetrics attaches m (which may be nil to detach) to the engine. It must
// be called before the engine is used concurrently; the engine does not
// synchronize the pointer itself.
func (e *Engine) SetMetrics(m *Metrics) { e.met = m }

// countFeeds records n fast-path arrivals.
func (m *Metrics) countFeeds(n int64) {
	if m.Feeds != nil {
		m.Feeds.Add(n)
	}
}

// countRun records one batch run of n items, split or not.
func (m *Metrics) countRun(n int64, crossed bool) {
	m.countFeeds(n)
	if m.BatchRuns != nil {
		m.BatchRuns.Inc()
	}
	if crossed && m.BatchSplits != nil {
		m.BatchSplits.Inc()
	}
}

// slowPathStart returns the histogram start time, or zero when no hold
// histogram is wired (time.Now is skipped entirely then).
func slowPathStart(h *obs.Histogram) time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

// slowPathDone observes the hold duration begun at t0, if timed.
func slowPathDone(h *obs.Histogram, t0 time.Time) {
	if h != nil && !t0.IsZero() {
		h.Observe(time.Since(t0).Seconds())
	}
}
