// Package engine owns the two-phase coordinator/k-site concurrency skeleton
// shared by the paper's three tracking protocols (core/hh, core/quantile,
// core/allq). Each protocol used to carry its own copy of the skeleton —
// per-site locks, the escalation mutex, the coordinator state version, the
// bootstrap handoff, the batched-ingest run splitting, Quiesce — with only
// the algorithm in the middle differing. The engine hoists all of it behind
// a small Policy interface, so a tracker is just a policy: the site-local
// counter updates, the coordinator communication cascade, and the queries.
//
// # Concurrency model
//
// Ingest is two-phase inside the engine, behind two entry points:
//
//   - The site-local fast path (ApplyRun, for one arrival in Feed or a run of
//     a batch in FeedLocalBatch) takes only the one site's lock, applies the
//     policy's local accounting, and reports whether the protocol requires
//     coordinator work. Per-site state is single-writer.
//   - The coordinator slow path (slowPath, the one function both entry
//     points escalate through) serializes on escMu and holds the escalating
//     site's lock: that is all a site→coordinator report touches, as the
//     paper delivers each such message atomically. A cascade that consults
//     every site (a round build, a split, a relocation, a rebuild, a
//     broadcast) first calls All, which locks the remaining sites for the
//     rest of the hold. Round structure the fast path reads therefore only
//     changes while every fast path is excluded, and a report never waits
//     for, or stalls, another site's arrivals.
//   - Feed is the sequential composition of the two for one arrival — the
//     per-arrival transcription of the paper and the reference the batch
//     path is pinned against; like queries outside Quiesce it is for
//     single-threaded callers.
//   - FeedLocalBatch is the concurrent entry point, safe with one goroutine
//     per site. It amortizes the fast path over escalation-free runs: one
//     site-lock acquisition and one fold into the site/global counts per
//     run, with the slow path run inline at exactly the logical positions a
//     sequential Feed loop would choose — protocol state and every
//     wire.Meter count stay bit-for-bit identical to feeding one by one. A
//     tracking escalation is one hold; a bootstrap forward drains the rest of
//     the batch's forwards under the same hold, up to coalesceItems and no
//     further than the handoff, so a bootstrap batch costs one acquisition,
//     not one per arrival.
//
// The lock order is escMu, then the escalating site's lock, then (in All)
// the other sites in ascending index order; Quiesce, Reconfigure and the
// checkpoint paths take escMu and then every site in index order. Under
// escMu no other goroutine holds more than one lock, and a fast path holds
// one site lock and waits on nothing, so no cycle exists.
//
// # Bootstrap
//
// The engine starts in a forward-everything phase: every arrival escalates,
// and the policy's OnBootEscalate reports when it is over. Each policy ends
// it at its own target, the smallest count at which none of its per-arrival
// thresholds is floored at one item; before that, a tracked arrival would
// cost more words than forwarding it does. The phase flag is read by every
// fast path, so the engine calls All before it ends the phase.
//
// # Versioned snapshots
//
// The engine bumps a coordinator state version after every escalation,
// before releasing the locks: a reader that still observes the old version
// is guaranteed the escalation has not yet published, so answers computed
// under Quiesce remain valid while Version is unchanged (the service
// layer's query snapshot cache builds on this).
package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"disttrack/internal/wire"
)

// Policy is the per-protocol algorithm the engine drives. All methods are
// invoked by the engine under its locks — Apply* under the one site's lock,
// On* under escMu plus the escalating site's lock — so policy state needs no
// locking of its own: per-site state is guarded by the engine's site locks
// and coordinator state by escMu. An On* method that reads or writes another
// site's state, or changes round structure the fast path reads, calls
// Engine.All first; OnReconfigure and the checkpoint hooks run under every
// lock already.
//
// The On* methods are the paper's site→coordinator messages, and every All
// call site is a coordinator→site request (docs/architecture.md lists both).
//
// Policies meter their own protocol messages through Engine.Meter; the
// engine itself meters only the bootstrap "item" forwards, which are
// identical across protocols.
type Policy interface {
	// ApplyBoot records one bootstrap arrival in site j's local store.
	// During bootstrap every arrival is forwarded to the coordinator, so no
	// threshold is checked here; the engine escalates unconditionally.
	ApplyBoot(site int, x uint64)

	// ApplyRun records a prefix of xs at site j — the store insert plus the
	// protocol's delta/counter accounting — stopping at (and including) the
	// first arrival that reaches a reporting threshold. It returns how many
	// items were consumed and whether the last one crossed. Contract
	// (engine-enforced): xs is non-empty, consumed is in [1, len(xs)], and
	// crossed=false means the whole slice was consumed. Feed passes a
	// one-item slice. Policies hoist per-run invariants here (thresholds only
	// change under every site lock, so they are constant for a run) and may
	// bulk-insert the consumed prefix into the site store; they must not
	// retain xs. The engine folds the consumed count into the site and global
	// totals.
	ApplyRun(site int, xs []uint64) (consumed int, crossed bool)

	// OnBootEscalate forwards one bootstrap arrival to the coordinator
	// (the engine has already metered the "item" message) and reports
	// whether the bootstrap phase is complete.
	OnBootEscalate(site int, x uint64) (done bool)

	// OnBootDone runs the bootstrap→tracking handoff — the first round
	// build, broadcast, baselining — immediately after the engine has
	// marked bootstrap over (with every site locked).
	OnBootDone()

	// OnEscalate runs the coordinator slow path for an arrival previously
	// applied by ApplyRun: re-check the reporting thresholds and run the
	// (rare) communication cascade with all wire.Meter accounting. In a
	// sequential Feed the re-checks see exactly the state the fast path left,
	// so the combined behavior is identical to the unsplit protocol; under
	// concurrency a report may additionally absorb deltas from arrivals that
	// raced in at its own site, and other sites keep ingesting until a
	// cascade calls All, which only makes reporting fresher.
	OnEscalate(site int, x uint64)
}

// Config parameterizes an Engine.
type Config struct {
	Name string  // protocol name, used in panics and validation errors
	K    int     // number of sites, >= 1
	Eps  float64 // approximation error, in (0, 1)
}

// coalesceItems bounds one bootstrap hold: when FeedLocalBatch forwards a
// bootstrap arrival with batch remaining, the engine forwards the rest of the
// batch under the already-held locks, but releases them after coalesceItems
// drained arrivals, so other sites' escalations and queries are not starved
// behind one site's bootstrap batch. It is far above the common batch sizes
// (the runtime and service deliver 256–4096 item batches), so in practice a
// bootstrap batch is one acquisition. Tracking escalations drain nothing:
// their hold ends after OnEscalate, and the split loop feeds the rest of the
// batch under the site lock alone.
const coalesceItems = 8192

// holdSample is the slow-path hold timing rate: the 1st, 65th, 129th, …
// hold of each engine is timed into Metrics.SlowPathHold (Metrics says why).
const holdSample = 64

// site is the engine-owned per-site core: the lock that guards both the
// engine's and the policy's per-site state, plus the exact local count.
// Sites are heap-allocated and pointer-stable: Reconfigure swaps the slice
// header, never moves a live site struct (moving one would copy its mutex).
type site struct {
	mu  sync.Mutex
	nj  int64     // exact local count |S_j|
	one [1]uint64 // Feed's one-item ApplyRun slice, so Feed allocates nothing
}

// Engine runs the two-phase protocol skeleton over a Policy.
type Engine struct {
	name  string
	eps   float64
	meter wire.Meter
	pol   Policy

	// escMu serializes the coordinator slow path (slowPath, Quiesce). The
	// slow path additionally holds the escalating site's lock, and every
	// other site's once a cascade calls All, so coordinator state read by the
	// fast path only changes while all fast paths are excluded.
	escMu   sync.Mutex
	version atomic.Uint64 // bumped after every slow-path entry (see Version)
	holds   uint64        // slow-path holds taken; written only under escMu
	// partial is the one site a slow-path hold has locked until All locks
	// the rest; nil whenever every site is locked or no hold is open. Written
	// and read only under escMu.
	partial *site

	// sites holds the current membership behind one atomic pointer: the
	// fast path pays a single atomic load to resolve its site, and
	// Reconfigure — which runs with every fast path excluded — publishes a
	// fresh slice without racing concurrent queries of K or SiteCount. The
	// slice is written only under escMu plus every site lock.
	sites atomic.Pointer[[]*site]

	// met, when non-nil, receives the engine's observability counters.
	// Written by SetMetrics before concurrent use, read on both paths; the
	// fast path pays one nil check plus an atomic add per arrival (per run
	// on the batched path) — see Metrics.
	met *Metrics

	// boot is the initial forward-everything phase: until the policy reports
	// its bootstrap done, every arrival escalates. Read on the fast path,
	// changed only on the slow path.
	boot bool

	n atomic.Int64 // true global count (ground truth for tests/experiments)
}

// New validates cfg and returns an Engine driving pol. The engine starts in
// the bootstrap phase.
func New(cfg Config, pol Policy) (*Engine, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("%s: K must be >= 1, got %d", cfg.Name, cfg.K)
	}
	if cfg.Eps <= 0 || cfg.Eps >= 1 {
		return nil, fmt.Errorf("%s: Eps must be in (0,1), got %g", cfg.Name, cfg.Eps)
	}
	e := &Engine{
		name: cfg.Name,
		eps:  cfg.Eps,
		pol:  pol,
		boot: true,
	}
	sites := make([]*site, cfg.K)
	for j := range sites {
		sites[j] = &site{}
	}
	e.sites.Store(&sites)
	return e, nil
}

// siteAt bounds-checks and returns site j.
func (e *Engine) siteAt(j int) *site {
	sites := *e.sites.Load()
	if j < 0 || j >= len(sites) {
		panic(fmt.Sprintf("%s: site %d out of range [0,%d)", e.name, j, len(sites)))
	}
	return sites[j]
}

// Feed records one arrival of item x at the given site and runs any
// communication the protocol triggers. It is the sequential composition of
// the fast and slow paths — deterministic callers (the harness, the
// experiments) observe exactly the pre-split behavior, message for message,
// and every escalation it runs is one slow-path acquisition: it is the
// reference FeedLocalBatch is pinned against.
func (e *Engine) Feed(siteID int, x uint64) {
	if e.feedLocal(siteID, x) {
		e.slowPath(siteID, x, nil)
	}
}

// feedLocal runs the site-local fast path for one arrival of x at the given
// site, with no shared state touched and no communication metered. It
// reports whether the protocol requires coordinator work — Feed then runs
// the slow path for the same arrival.
func (e *Engine) feedLocal(siteID int, x uint64) (escalate bool) {
	s := e.siteAt(siteID)
	s.mu.Lock()
	if e.boot {
		// Bootstrap: every arrival is forwarded, so every arrival escalates.
		s.nj++
		e.n.Add(1)
		e.pol.ApplyBoot(siteID, x)
		escalate = true
	} else {
		s.one[0] = x
		_, escalate = e.applyRun(s, siteID, s.one[:])
	}
	s.mu.Unlock()
	if m := e.met; m != nil {
		m.countFeeds(1)
	}
	return escalate
}

// applyRun runs the policy's ApplyRun over xs at site s, whose lock the
// caller holds, enforces its contract and folds the consumed count into the
// site and global totals.
func (e *Engine) applyRun(s *site, siteID int, xs []uint64) (consumed int, crossed bool) {
	consumed, crossed = e.pol.ApplyRun(siteID, xs)
	if consumed < 1 || consumed > len(xs) || (!crossed && consumed != len(xs)) {
		// A nonconforming policy would otherwise corrupt the counts or drop
		// the batch tail silently; fail loudly instead.
		s.mu.Unlock()
		panic(fmt.Sprintf("%s: ApplyRun contract violation: consumed %d of %d, crossed %v",
			e.name, consumed, len(xs), crossed))
	}
	s.nj += int64(consumed)
	e.n.Add(int64(consumed))
	return consumed, crossed
}

// FeedLocalBatch records a batch of arrivals at one site, amortizing the
// fast path: one site-lock acquisition and one global-count update per
// escalation-free run, with the policy's per-item accounting applied in
// arrival order. The batch splits at every threshold crossing and runs the
// slow path inline at exactly the logical positions the sequential Feed loop
// would choose, so coordinator state and every wire.Meter count are
// bit-for-bit identical to feeding the items one by one (see docs/perf.md
// for the identity argument). A tracking crossing is one hold; a bootstrap
// forward drains the batch's further forwards under its hold (see slowPath).
// The engine does not retain xs.
//
// It is safe for concurrent use with one goroutine per site; it must not be
// interleaved with Feed calls for the same site from other goroutines.
func (e *Engine) FeedLocalBatch(siteID int, xs []uint64) {
	s := e.siteAt(siteID)
	for i := 0; i < len(xs); {
		s.mu.Lock()
		if e.boot {
			// Bootstrap forwards every arrival: apply one item and escalate
			// it, exactly the sequential composition. The slow path forwards
			// the rest of the batch under the same hold.
			x := xs[i]
			s.nj++
			e.n.Add(1)
			e.pol.ApplyBoot(siteID, x)
			s.mu.Unlock()
			if m := e.met; m != nil {
				m.countFeeds(1)
			}
			i++
			i += e.slowPath(siteID, x, xs[i:])
			continue
		}
		consumed, crossed := e.applyRun(s, siteID, xs[i:])
		s.mu.Unlock()
		if m := e.met; m != nil {
			m.countRun(int64(consumed), crossed)
		}
		i += consumed
		if !crossed {
			break
		}
		e.slowPath(siteID, xs[i-1], nil)
	}
}

// slowPath runs the coordinator slow path for an arrival x the fast path has
// already applied. It takes escMu plus the escalating site's lock; a cascade
// inside the policy widens the hold to every site through All. It returns how
// many arrivals of rest — the arrivals after x in its batch — it consumed;
// the caller's split loop feeds the remainder.
//
// x either forwards a bootstrap arrival (running the bootstrap→tracking
// handoff when the policy reports it complete) or goes to Policy.OnEscalate.
// A tracking escalation ends the hold and consumes nothing of rest. While the
// bootstrap lasts, the hold instead applies and forwards the next arrival of
// rest exactly as a sequential Feed would (ApplyBoot, the "item" forward, one
// version bump each), so a bootstrap batch costs one acquisition, not one per
// arrival; it stops at the handoff, when rest is exhausted, or after
// coalesceItems drained arrivals.
//
// An arrival that straddles the bootstrap→tracking transition (the fast path
// saw boot, another site's escalation ended it first) reaches OnEscalate
// instead of OnBootEscalate and is never forwarded. core/hh keeps such an
// arrival in the site's pending deltas from ApplyBoot on, so its next report
// carries it; core/quantile and core/allq absorb it at their next exact
// collection, costing at most one word of staleness per site, once — within
// every invariant's slack.
func (e *Engine) slowPath(siteID int, x uint64, rest []uint64) (drained int) {
	m := e.met
	e.escMu.Lock()
	s := e.siteAt(siteID)
	s.mu.Lock()
	e.partial = s
	var t0 time.Time
	if m != nil {
		if m.SlowPathAcquires != nil {
			m.SlowPathAcquires.Inc()
		}
		if e.holds%holdSample == 0 {
			t0 = slowPathStart(m.SlowPathHold)
		}
	}
	e.holds++
	for {
		if e.boot {
			e.meter.Up(siteID, "item", 1)
			if e.pol.OnBootEscalate(siteID, x) {
				// Every fast path reads the phase flag: exclude them all.
				e.All()
				e.boot = false
				e.pol.OnBootDone()
				if m != nil && m.BootHandoffs != nil {
					m.BootHandoffs.Inc()
				}
			}
		} else {
			e.pol.OnEscalate(siteID, x)
		}
		// One version bump per escalation, before the locks are released: a
		// reader that still observes the old version is guaranteed the
		// escalation has not yet published, and Version stays identical to
		// the sequential path (enginetest pins this).
		e.version.Add(1)
		if m != nil && m.Escalations != nil {
			m.Escalations.Inc()
		}
		if !e.boot || drained == len(rest) || drained == coalesceItems {
			break
		}
		// The next arrival is a bootstrap forward too: apply it as the fast
		// path would and escalate it under this hold.
		x = rest[drained]
		s.nj++
		e.n.Add(1)
		e.pol.ApplyBoot(siteID, x)
		drained++
		if m != nil {
			m.countFeeds(1)
			if m.SavedAcquires != nil {
				m.SavedAcquires.Inc()
			}
		}
	}
	if m != nil {
		slowPathDone(m.SlowPathHold, t0)
	}
	if e.partial == nil {
		e.unlockSites()
	} else {
		e.partial = nil
		s.mu.Unlock()
	}
	e.escMu.Unlock()
	return drained
}

// All locks every site the current slow-path hold does not hold yet, for the
// rest of the hold. A policy calls it before any cascade that reads or writes
// another site's state or changes round structure the fast path reads — the
// coordinator→site requests and broadcasts of the paper. It may be called
// from Policy callbacks only; a second call in the same hold, and every call
// under Quiesce, Reconfigure, Checkpoint or Restore (which hold every site
// already), is a no-op.
func (e *Engine) All() {
	own := e.partial
	if own == nil {
		return
	}
	for _, s := range *e.sites.Load() {
		if s != own {
			s.mu.Lock()
		}
	}
	e.partial = nil
}

// lockSites acquires every site lock in index order. Callers hold escMu, so
// the membership the loop walks cannot change mid-acquisition.
func (e *Engine) lockSites() {
	for _, s := range *e.sites.Load() {
		s.mu.Lock()
	}
}

func (e *Engine) unlockSites() {
	for _, s := range *e.sites.Load() {
		s.mu.Unlock()
	}
}

// Quiesce runs f with the whole cluster quiescent — no fast path in flight,
// no escalation — so tracker reads inside f see a consistent coordinator
// and site state. It is the query entry point for concurrent deployments.
func (e *Engine) Quiesce(f func()) {
	m := e.met
	e.escMu.Lock()
	e.lockSites()
	var t0 time.Time
	if m != nil {
		t0 = slowPathStart(m.QuiesceHold)
	}
	f()
	if m != nil {
		slowPathDone(m.QuiesceHold, t0)
	}
	e.unlockSites()
	e.escMu.Unlock()
}

// Version returns the coordinator state version: it changes only when an
// escalation may have changed coordinator state, so an answer computed
// under Quiesce remains valid while Version stays the same. Safe for
// concurrent use; see the service layer's query snapshots.
func (e *Engine) Version() uint64 { return e.version.Load() }

// Meter returns the communication meter. Policies record their protocol
// messages through it; it is not safe for concurrent use outside the
// engine's locks.
func (e *Engine) Meter() *wire.Meter { return &e.meter }

// K returns the number of sites. Eps returns the error parameter. K is safe
// for concurrent use (it reads the membership pointer); under a concurrent
// Reconfigure it returns either the old or the new count.
func (e *Engine) K() int       { return len(*e.sites.Load()) }
func (e *Engine) Eps() float64 { return e.eps }

// Bootstrapping reports whether the engine is still forwarding every item.
func (e *Engine) Bootstrapping() bool { return e.boot }

// TrueTotal returns the exact global count (not known to the coordinator).
// Safe for concurrent use.
func (e *Engine) TrueTotal() int64 { return e.n.Load() }

// SiteCount returns the exact number of arrivals observed at site j. Like
// the query methods it is consistent only under Quiesce (or sequentially).
func (e *Engine) SiteCount(j int) int64 { return (*e.sites.Load())[j].nj }

// ErrNotReconfigurable is returned by Reconfigure when the engine's policy
// does not implement ReconfigurePolicy.
var ErrNotReconfigurable = errors.New("engine: policy does not support reconfiguration")

// ReconfigurePolicy is implemented by policies that support live membership
// changes. OnReconfigure runs under escMu plus every site lock (old and new
// membership both locked), after the engine has already resized its own
// site set: the policy must resize its per-site state to newK — folding a
// removed site's local state into site 0, whose engine-level count already
// absorbed the removed sites' counts — and restart its current round so
// every threshold and error budget is re-derived for the new k. During
// bootstrap no round exists; the policy only resizes.
type ReconfigurePolicy interface {
	OnReconfigure(oldK, newK int)
}

// Reconfigure changes the number of sites to newK — the paper's membership
// change, which every protocol handles by restarting its current round. It
// runs as a slow-path entry: under escMu plus every site lock, so all fast
// paths and queries are excluded for its duration. Growth appends fresh
// empty sites; shrinking folds the removed tail sites' exact counts into
// site 0 (the handoff path — a departing site's stream is re-homed, not
// forgotten), preserving sum(nj) == n so checkpoints taken after a shrink
// still validate. The policy's OnReconfigure then migrates protocol state
// and restarts the round at the new k.
//
// Callers must exclude concurrent Feed/FeedLocalBatch calls for
// sites being removed (the service layer drains its ingest pipeline first);
// calls addressing surviving sites serialize on the locks as usual but must
// not assume a site index is still valid across the call.
func (e *Engine) Reconfigure(newK int) error {
	if newK < 1 {
		return fmt.Errorf("%s: Reconfigure: K must be >= 1, got %d", e.name, newK)
	}
	rp, ok := e.pol.(ReconfigurePolicy)
	if !ok {
		return fmt.Errorf("%s: %w", e.name, ErrNotReconfigurable)
	}
	e.escMu.Lock()
	e.lockSites()
	old := *e.sites.Load()
	oldK := len(old)
	if newK == oldK {
		e.unlockSites()
		e.escMu.Unlock()
		return nil
	}
	var removed []*site
	fresh := make([]*site, newK)
	copy(fresh, old[:min(oldK, newK)])
	if newK < oldK {
		removed = old[newK:]
		for _, s := range removed {
			fresh[0].nj += s.nj
			s.nj = 0
		}
	} else {
		for j := oldK; j < newK; j++ {
			s := &site{}
			s.mu.Lock() // pre-locked: unlockSites below walks the new slice
			fresh[j] = s
		}
	}
	e.sites.Store(&fresh)
	rp.OnReconfigure(oldK, newK)
	for _, s := range removed {
		s.mu.Unlock() // no longer in the slice unlockSites walks
	}
	// Publish the new version before release, as the slow path does.
	e.version.Add(1)
	e.unlockSites()
	e.escMu.Unlock()
	return nil
}
