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
// (escalations, Quiesce), where a time.Now pair is noise against the lock
// acquisition they measure.
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
	// SlowPathAcquires counts escMu + all-site-locks acquisitions made by
	// the escalation path, one per slow-path hold. SlowPathAcquires +
	// SavedAcquires == Escalations always; Escalations − SlowPathAcquires is
	// the lock traffic the coalesced drain removed.
	SlowPathAcquires *obs.Counter
	// CoalescedRuns counts batch runs applied inline under an already-held
	// slow-path hold (a subset of BatchRuns).
	CoalescedRuns *obs.Counter
	// SavedAcquires counts threshold crossings absorbed by an already-held
	// coalesced hold — each one is a full lock-set round trip the
	// release/re-acquire-per-crossing path would have paid.
	SavedAcquires *obs.Counter
	// BootHandoffs counts bootstrap→tracking transitions (0 or 1 per
	// engine; across a fleet, how many tenants have left bootstrap).
	BootHandoffs *obs.Counter
	// SlowPathHold observes the seconds an escalation held escMu plus every
	// site lock — the cluster-wide stall each escalation imposes.
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
