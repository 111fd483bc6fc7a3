// Package core groups the paper's three tracking protocols:
//
//   - core/hh: continuous φ-heavy-hitter tracking (Yi–Zhang §2.1, Theorem 2.1)
//   - core/quantile: continuous single-φ-quantile tracking (§3.1, Theorem 3.1)
//   - core/allq: continuous all-quantile tracking (§4, Theorem 4.1)
//
// All three are policies over the same engine (core/engine): a
// deterministic, in-process simulation of k sites and one coordinator,
// where Feed(site, item) runs the site logic and any communication it
// triggers, metered by wire.Meter. The Tracker interface below is the
// engine-provided surface they consequently share.
package core

import (
	"io"

	"disttrack/internal/core/engine"
	"disttrack/internal/wire"
)

// Tracker is the protocol surface common to all three core trackers. The
// ingest and quiescence half (Feed through Version) is implemented by the
// shared core/engine skeleton; the stats half is uniform across protocols.
// Deployments that need no per-kind queries — runtime.Cluster, the
// multi-tenant service's ingest/stats paths, the conformance suite —
// program against this interface and switch on nothing.
//
// Concurrency: FeedLocalBatch is the one concurrent ingest entry point, safe
// with one goroutine per site; Quiesce and Version are safe for concurrent
// use; Feed and the stats methods are for sequential callers or inside
// Quiesce. EstTotal never overestimates TrueTotal.
type Tracker interface {
	// Feed records one arrival sequentially: the site-local fast path plus,
	// when the protocol requires coordinator work, the slow path. It is the
	// per-arrival reference FeedLocalBatch is pinned against.
	Feed(site int, x uint64)
	// FeedLocalBatch amortizes the fast path over a batch, running the
	// slow path inline at exactly the sequential positions.
	FeedLocalBatch(site int, xs []uint64)
	// Quiesce runs f with no fast path in flight and no escalation.
	Quiesce(f func())
	// Version is the coordinator state version; answers computed under
	// Quiesce stay valid while it is unchanged.
	Version() uint64

	// Meter returns the communication meter.
	Meter() *wire.Meter
	// SetMetrics attaches (or detaches, with nil) the engine's obs
	// instrumentation; call before concurrent use. See engine.Metrics.
	SetMetrics(m *engine.Metrics)
	// K returns the number of sites; Eps the approximation error.
	K() int
	Eps() float64
	// EstTotal is the coordinator's underestimate of the global count;
	// TrueTotal the exact count (ground truth, unknown to the coordinator).
	EstTotal() int64
	TrueTotal() int64
	// SiteCount returns the exact number of arrivals observed at site j.
	SiteCount(j int) int64
	// SiteSpace returns the number of state entries held at site j.
	SiteSpace(j int) int
	// Rounds returns the number of completed protocol rounds.
	Rounds() int
	// Bootstrapping reports whether every arrival is still forwarded.
	Bootstrapping() bool

	// Checkpoint writes a versioned, checksummed snapshot of the tracker
	// under the quiescent lock set; Restore rebuilds a freshly constructed
	// tracker (same config, before the first feed) from one. See
	// engine.CheckpointPolicy for the contract.
	Checkpoint(w io.Writer) error
	Restore(r io.Reader) error

	// Reconfigure changes the number of sites to newK under the quiescent
	// lock set and restarts the protocol round at the new k (the paper's
	// membership-change rule). Removed sites' state is folded into site 0.
	// See engine.ReconfigurePolicy for the contract.
	Reconfigure(newK int) error
}
