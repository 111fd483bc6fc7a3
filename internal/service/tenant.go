package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"disttrack/internal/core"
	"disttrack/internal/core/allq"
	"disttrack/internal/core/hh"
	"disttrack/internal/core/quantile"
	"disttrack/internal/durable"
	"disttrack/internal/fault"
	"disttrack/internal/remote"
	"disttrack/internal/runtime"
	"disttrack/internal/slots"
	"disttrack/internal/stream"
	"disttrack/internal/wire"
)

// ErrUnsupported marks (wrapped) a query shape the tenant's kind cannot
// answer. The HTTP layer maps it to 422 by sentinel, so adding a kind never
// touches the handlers: capability lives entirely in the constructor-built
// answer functions.
var ErrUnsupported = errors.New("query not supported by tenant kind")

// ErrNoData marks (wrapped) a query that needs at least one ingested
// arrival; the HTTP layer maps it to 409.
var ErrNoData = errors.New("no data")

// Kind selects which of the paper's protocols a tenant runs.
type Kind string

const (
	// KindHH tracks φ-heavy hitters (core/hh, Theorem 2.1).
	KindHH Kind = "hh"
	// KindQuantile tracks a fixed set of φ-quantiles (core/quantile,
	// Theorem 3.1).
	KindQuantile Kind = "quantile"
	// KindAllQ tracks all quantiles and ranks at once (core/allq,
	// Theorem 4.1); it also answers heavy-hitter queries from ranks.
	KindAllQ Kind = "allq"
)

// MaxPerturbedValue bounds ingested values for quantile and allq tenants:
// the service breaks ties by symbolic perturbation (stream.Perturb), which
// reserves the low PerturbBits of the key space.
const MaxPerturbedValue = uint64(1) << (64 - stream.PerturbBits)

// TenantConfig describes one tracked stream.
type TenantConfig struct {
	Name   string    `json:"name"`
	Kind   Kind      `json:"kind"`
	K      int       `json:"k"`                // number of sites, >= 1
	Eps    float64   `json:"eps"`              // approximation error, in (0,1)
	Phis   []float64 `json:"phis,omitempty"`   // quantile kind: tracked quantiles (default 0.5)
	Sketch bool      `json:"sketch,omitempty"` // small-space per-site stores

	// RateLimit caps admitted ingest records per second for this tenant
	// (token bucket; 0 = unlimited). Records over the limit are throttled:
	// HTTP ingest answers 429 with a Retry-After hint, networked ingest
	// drops and counts them (see docs/operations.md).
	RateLimit float64 `json:"rate_limit,omitempty"`
	// RateBurst is the rate limiter's bucket depth — the burst admissible
	// at once (default max(RateLimit, 1); only meaningful with RateLimit
	// set). A networked frame larger than the bucket is admitted whole from
	// a full bucket and repaid before anything else is admitted.
	RateBurst float64 `json:"rate_burst,omitempty"`
	// QueueShare bounds this tenant's records admitted but not yet applied
	// to its tracker — in an ingest call still delivering, or waiting on its
	// site channels (0 = unbounded). A tenant at its share is throttled
	// instead of blocking its callers (and, in a mixed batch, the other
	// tenants' records behind it) on a full site channel.
	QueueShare int `json:"queue_share,omitempty"`
}

func (tc TenantConfig) validate() error {
	if tc.Name == "" {
		return fmt.Errorf("tenant name must be non-empty")
	}
	if len(tc.Name) > remote.MaxTenantLen {
		// A site node's frames could not carry the name.
		return fmt.Errorf("tenant name is %d bytes, over the %d-byte limit", len(tc.Name), remote.MaxTenantLen)
	}
	for _, r := range tc.Name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("tenant name %q: only [A-Za-z0-9._-] allowed", tc.Name)
		}
	}
	kind, ok := kinds[tc.Kind]
	if !ok {
		return fmt.Errorf("unknown tenant kind %q (want hh, quantile or allq)", tc.Kind)
	}
	if tc.K < 1 {
		return fmt.Errorf("k must be >= 1, got %d", tc.K)
	}
	if tc.Eps <= 0 || tc.Eps >= 1 {
		return fmt.Errorf("eps must be in (0,1), got %g", tc.Eps)
	}
	for _, phi := range tc.Phis {
		if phi < 0 || phi > 1 {
			return fmt.Errorf("every phi must be in [0,1], got %g", phi)
		}
	}
	if !kind.phis && len(tc.Phis) > 0 {
		return fmt.Errorf("phis only applies to quantile tenants")
	}
	if tc.RateLimit < 0 {
		return fmt.Errorf("rate_limit must be >= 0, got %g", tc.RateLimit)
	}
	if tc.RateBurst < 0 {
		return fmt.Errorf("rate_burst must be >= 0, got %g", tc.RateBurst)
	}
	if tc.RateBurst > 0 && tc.RateLimit == 0 {
		return fmt.Errorf("rate_burst requires rate_limit")
	}
	if tc.QueueShare < 0 {
		return fmt.Errorf("queue_share must be >= 0, got %d", tc.QueueShare)
	}
	return nil
}

// shape is one of the four questions a tenant can be asked.
type shape uint8

const (
	shapeHeavy    shape = iota // φ-heavy hitters (hh, allq)
	shapeQuantile              // φ-quantile (quantile, allq)
	shapeRank                  // rank of a value (allq)
	shapeFreq                  // point frequency of an item (hh)
	nShapes
)

// shapeNames name each shape in capability errors (noun) and in the
// disttrack_queries_total query label (label).
var shapeNames = [nShapes]struct{ noun, label string }{
	{"heavy-hitter", "heavy"},
	{"quantile", "quantile"},
	{"rank", "rank"},
	{"frequency", "frequency"},
}

// query is one question to a tenant, and its snapshot-cache key: phi for the
// heavy and quantile shapes, x (the value or the item) for rank and freq.
type query struct {
	shape shape
	phi   float64
	x     uint64
}

// answer is a query's result, computed (or cache-validated) at coordinator
// version ver. Each shape fills its own fields.
type answer struct {
	ver     uint64
	entries []Entry // heavy; shared with the cache, never mutated
	value   uint64  // quantile: the raw (unperturbed) value
	count   int64   // rank: the values below x; freq: the item's count
	total   int64   // rank: the coordinator's total estimate
}

// Tenant is one named tracker instance: a core tracker wrapped in a
// runtime.Cluster, plus the service-side perturbation and send bookkeeping.
// Every delivery to a tenant runs under its gate (durMu), which is what makes
// the perturbation counters single-writer. All kind-independent state
// flows through the unified core.Tracker handle; the per-kind query shapes
// live in answers.
type Tenant struct {
	// Line group 1 — read-mostly. Everything validation (once per run of
	// records) and delivery (once per group) only READ lives here, away from
	// the counters below, so a producer validating against kLive never waits
	// for a cache line another producer's delivery just wrote.

	// cfg is fixed at construction. Its K is the k the tenant was created
	// at: the live k is kLive, which Config and Stats report.
	cfg TenantConfig
	// gen is a process-unique instance nonce baked into the tenant's query
	// ETags: a deleted-and-recreated tenant restarts its tracker version at
	// zero, so version alone would let a stale client 304 against a
	// different stream. The nonce makes the two instances' ETags disjoint.
	gen uint64
	// limited caches "any QoS admission configured" (RateLimit or
	// QueueShare), fixed at construction: unlimited tenants skip admit on
	// the ingest path.
	limited bool
	// kLive is the tenant's live site count. ReconfigureTenant is its one
	// writer; the ingest path validates sites against it lock-free.
	kLive atomic.Int32
	// clu is the tenant's runtime cluster with its predecessors' counts,
	// swapped atomically on reconfigure (the new cluster is built at the new
	// k, the old one drained). Every swap is serialized by the server's
	// memberMu.
	clu atomic.Pointer[liveCluster]
	tr  core.Tracker
	// answers holds the kind's answer function per query shape (see
	// kindSpec.build); nil means the kind does not answer that shape.
	answers [nShapes]func(query) answer
	tm      *tenantMetrics // nil when the owning registry is uninstrumented
	// seq is the symbolic-perturbation state for quantile/allq tenants:
	// per-value occurrence counters (see stream.Perturb), one slot per
	// distinct value. The table is touched only under durMu; the field itself
	// is fixed at construction (nil = kind not perturbed).
	seq *slots.Table[uint32]
	// limiter is the rate limiter; nil without a rate limit.
	limiter *fault.Limiter
	// dur is the tenant's durable state (WAL + checkpoints); nil without a
	// data directory.
	dur *durable.Tenant

	_ cacheLinePad

	// Line group 2 — counters ingest calls write: queued and throttled
	// during admission (QoS-limited tenants only), the rest under durMu.

	// queued counts records QoS admission let into ingest calls that have
	// not finished delivering them (the in-call part of backlog; stays zero
	// for unlimited tenants); throttled counts records denied admission by
	// the queue-share bound or the rate limiter.
	queued    atomic.Int64
	throttled atomic.Int64
	sent      atomic.Int64 // arrivals successfully enqueued to the cluster
	dropped   atomic.Int64 // arrivals lost because the tenant closed mid-send
	ties      atomic.Int64 // perturbation overflows (> 2^24 copies of a value)

	_ cacheLinePad

	// Line group 3 — locks (their state words are written on every
	// acquisition) and the query cache.

	// durMu is the tenant's delivery gate: every ingest call holds it across
	// the {perturb, WAL append, cluster send} step for the tenant's groups,
	// making that step single-writer among concurrent callers and atomic
	// against (a) checkpoint capture — the checkpointer takes it, waits for
	// the cluster to absorb everything sent, and snapshots state that matches
	// the WAL prefix exactly — and (b) reconfigure's cluster swap, which
	// takes it to fence out in-flight deliveries. Deliverers use a
	// get-lock-recheck loop (look the tenant up again after locking; retry if
	// the registry now holds a different instance) so a delivery can never
	// land on an instance that was deleted under it. Site goroutines never
	// take it, so a holder may block on a full site channel or wait for
	// synced().
	durMu sync.Mutex

	// sendMu serializes sends against close: sends hold the read side, so
	// close's write lock waits for in-flight sends before draining the
	// cluster (runtime forbids SendBatch concurrent with Drain).
	sendMu sync.RWMutex
	closed bool

	// Query snapshot cache. Coordinator state only changes on protocol
	// escalations, and the trackers publish a version that ticks exactly
	// then — so an answer computed under a quiescent query stays valid
	// while the version is unchanged, and heavy query traffic is served
	// from this cache without stalling ingest. Every answer in qc was
	// computed at qcVersion; a newer answer's store clears it.
	qcMu      sync.Mutex
	qcVersion uint64
	qc        map[query]answer
}

// cacheLinePad separates field groups of a struct so that no byte of one
// shares a 64-byte cache line with a byte of the next, whatever the
// allocation's alignment.
type cacheLinePad [64]byte

// tenantGen issues the per-process instance nonces for query ETags.
var tenantGen atomic.Uint64

// kindSpec is what the service knows about one tenant kind.
type kindSpec struct {
	// build constructs the kind's tracker for a validated config (Phis
	// defaulted) and its answer function per query shape; a nil function
	// means the kind does not answer that shape. The answers read tracker
	// state, so they run only inside Quiesce.
	build func(tc TenantConfig) (core.Tracker, [nShapes]func(query) answer, error)
	// perturbed: ingested values are symbolically perturbed (stream.Perturb),
	// so they must stay below MaxPerturbedValue.
	perturbed bool
	// phis: the kind tracks a configured set of φs (default 0.5); the other
	// kinds refuse phis.
	phis bool
}

// kinds is the one table of tenant kinds: validation and construction read
// it, and nothing else in the service tells the kinds apart.
var kinds = map[Kind]kindSpec{
	KindHH:       {build: buildHH},
	KindQuantile: {build: buildQuantile, perturbed: true, phis: true},
	KindAllQ:     {build: buildAllQ, perturbed: true},
}

// modeFor maps TenantConfig.Sketch to a tracker package's store mode.
func modeFor[M any](sketch bool, exact, small M) M {
	if sketch {
		return small
	}
	return exact
}

func buildHH(tc TenantConfig) (_ core.Tracker, ans [nShapes]func(query) answer, err error) {
	tr, err := hh.New(hh.Config{K: tc.K, Eps: tc.Eps, Mode: modeFor(tc.Sketch, hh.ModeExact, hh.ModeSketch)})
	if err != nil {
		return nil, ans, err
	}
	ans[shapeHeavy] = func(q query) (a answer) {
		for _, e := range tr.HeavyHitterEntries(q.phi) {
			a.entries = append(a.entries, Entry{Item: e.Item, Count: e.Count, Ratio: e.Ratio})
		}
		return a
	}
	ans[shapeFreq] = func(q query) answer { return answer{count: tr.EstFrequency(q.x)} }
	return tr, ans, nil
}

func buildQuantile(tc TenantConfig) (_ core.Tracker, ans [nShapes]func(query) answer, err error) {
	mode := modeFor(tc.Sketch, quantile.ModeExact, quantile.ModeSketch)
	tr, err := quantile.New(quantile.Config{K: tc.K, Eps: tc.Eps, Phis: tc.Phis, Mode: mode})
	if err != nil {
		return nil, ans, err
	}
	ans[shapeQuantile] = func(q query) answer {
		// check admitted only tracked phis, so the index exists.
		return answer{value: stream.Unperturb(tr.QuantileAt(slices.Index(tc.Phis, q.phi)))}
	}
	return tr, ans, nil
}

func buildAllQ(tc TenantConfig) (_ core.Tracker, ans [nShapes]func(query) answer, err error) {
	tr, err := allq.New(allq.Config{K: tc.K, Eps: tc.Eps, Mode: modeFor(tc.Sketch, allq.ModeExact, allq.ModeSketch)})
	if err != nil {
		return nil, ans, err
	}
	ans[shapeHeavy] = func(q query) (a answer) {
		total := tr.EstTotal()
		if total == 0 {
			return a
		}
		for _, v := range tr.HeavyHittersFromRanks(q.phi, stream.PerturbBits) {
			// For the maximum valid value, (v+1)<<PerturbBits would wrap
			// to 0; every key >= v<<PerturbBits carries value v then.
			hi := total
			if v+1 < MaxPerturbedValue {
				hi = tr.Rank((v + 1) << stream.PerturbBits)
			}
			c := hi - tr.Rank(v<<stream.PerturbBits)
			a.entries = append(a.entries, Entry{Item: v, Count: c, Ratio: float64(c) / float64(total)})
		}
		return a
	}
	ans[shapeQuantile] = func(q query) answer {
		return answer{value: stream.Unperturb(tr.Quantile(q.phi))}
	}
	ans[shapeRank] = func(q query) answer {
		return answer{count: tr.Rank(stream.PerturbValue(q.x)), total: tr.EstTotal()}
	}
	return tr, ans, nil
}

func newTenant(tc TenantConfig, siteBuffer int, sm *serverMetrics) (*Tenant, error) {
	kind := kinds[tc.Kind]
	if kind.phis && len(tc.Phis) == 0 {
		tc.Phis = []float64{0.5}
	}
	t := &Tenant{cfg: tc, gen: tenantGen.Add(1), limited: tc.RateLimit > 0 || tc.QueueShare > 0}
	if tc.RateLimit > 0 {
		t.limiter = fault.NewLimiter(tc.RateLimit, tc.RateBurst)
	}
	if kind.perturbed {
		seq := slots.New[uint32]()
		t.seq = &seq
	}
	var err error
	if t.tr, t.answers, err = kind.build(tc); err != nil {
		return nil, err
	}
	// The service only ever reads meter totals (and per-tenant attribution
	// on the remote path); skip the per-kind map work on every message.
	t.meter().DisableKindBreakdown()
	if sm != nil {
		// Resolve the tenant's metric children once, and attach the engine's
		// fast-path instrumentation before the cluster goroutines start
		// (SetMetrics must precede concurrent use).
		t.tm = sm.tenant(tc.Name)
		t.tr.SetMetrics(&t.tm.eng)
	}
	clu, err := runtime.New(context.Background(), t.tr, tc.K, siteBuffer)
	if err != nil {
		return nil, err
	}
	t.clu.Store(&liveCluster{c: clu})
	t.kLive.Store(int32(tc.K))
	return t, nil
}

// liveCluster is a tenant's current runtime cluster plus the final counts
// of the clusters earlier reconfigurations drained. One atomic store swaps
// both, so the tenant's counts never dip or double across a swap.
type liveCluster struct {
	c    *runtime.Cluster
	base runtime.Stats
}

// stats returns the cluster's counters with its predecessors' folded in.
func (lc *liveCluster) stats() runtime.Stats {
	s := lc.c.Stats()
	return runtime.Stats{
		Processed: lc.base.Processed + s.Processed,
		Batches:   lc.base.Batches + s.Batches,
		Dropped:   lc.base.Dropped + s.Dropped,
	}
}

// cluster returns the tenant's current runtime cluster. The pointer is
// swapped on reconfigure; holders of a stale pointer get ErrStopped from
// sends (the old cluster is drained first) and retry through the registry.
func (t *Tenant) cluster() *runtime.Cluster { return t.clu.Load().c }

// stats returns the tenant's cluster counters over its whole life,
// membership changes included.
func (t *Tenant) stats() runtime.Stats { return t.clu.Load().stats() }

// K returns the tenant's live site count, lock-free (the ingest path
// validates sites against it on every record).
func (t *Tenant) K() int { return int(t.kLive.Load()) }

// meter returns the underlying tracker's communication meter.
func (t *Tenant) meter() *wire.Meter { return t.tr.Meter() }

// version returns the underlying tracker's coordinator state version; it
// changes only when an escalation may have changed coordinator state.
func (t *Tenant) version() uint64 { return t.tr.Version() }

// etagFor renders the strong ETag for an answer computed at tracker version
// ver: the instance nonce plus the version, quoted per RFC 9110. Coordinator
// state — and with it every query answer — changes only when the version
// ticks, so an unchanged ETag certifies an unchanged representation.
func (t *Tenant) etagFor(ver uint64) string {
	return `"t` + strconv.FormatUint(t.gen, 10) + `-v` + strconv.FormatUint(ver, 10) + `"`
}

// etag returns the ETag for the current coordinator version, lock-free.
func (t *Tenant) etag() string { return t.etagFor(t.version()) }

// cached returns the cached answer to q if it is still valid at the current
// coordinator version.
func (t *Tenant) cached(q query) (answer, bool) {
	cur := t.version()
	t.qcMu.Lock()
	defer t.qcMu.Unlock()
	if t.qcVersion != cur {
		return answer{}, false
	}
	a, ok := t.qc[q]
	return a, ok
}

// qcMaxEntries bounds the snapshot cache: phi, values and items are
// client-supplied, so without a cap a scanner probing distinct queries
// against an idle tenant (whose version never changes) would grow the cache
// without bound.
const qcMaxEntries = 1024

// store keeps a, computed at version a.ver, as the answer to q. Tracker
// versions only grow, so an answer older than the cached generation is
// dropped rather than clobber fresher ones; a newer one (or a full cache)
// starts a fresh generation.
func (t *Tenant) store(q query, a answer) {
	t.qcMu.Lock()
	defer t.qcMu.Unlock()
	if a.ver < t.qcVersion {
		return
	}
	if t.qc == nil || a.ver > t.qcVersion || len(t.qc) >= qcMaxEntries {
		t.qc = make(map[query]answer)
		t.qcVersion = a.ver
	}
	t.qc[q] = a
}

// countETag records a conditional query answered 304 from the version ETag.
func (t *Tenant) countETag() {
	if tm := t.tm; tm != nil {
		tm.sm.etagHits.Inc()
	}
}

// countCache records a snapshot-cache hit or miss.
func (t *Tenant) countCache(hit bool) {
	tm := t.tm
	if tm == nil {
		return
	}
	if hit {
		tm.sm.cacheHits.Inc()
	} else {
		tm.sm.cacheMisses.Inc()
	}
}

// queueShareRetry is the Retry-After hint for queue-share throttles: the
// backlog drains at delivery speed, not at a configured rate, so there is
// no exact refill time to compute — this is a short "come back soon".
const queueShareRetry = 50 * time.Millisecond

// admit runs QoS admission for n records: the queue-share bound first (a
// tenant at its share is backed up — admitting more only deepens the
// backlog), then the rate limiter. Denied records are counted throttled and
// the returned duration is the caller's Retry-After hint. Tenants with no
// QoS configured always admit.
func (t *Tenant) admit(n int) (bool, time.Duration) {
	if t.cfg.QueueShare > 0 && t.backlog() >= int64(t.cfg.QueueShare) {
		t.throttled.Add(int64(n))
		return false, queueShareRetry
	}
	if t.limiter != nil {
		if ok, retry := t.limiter.Admit(n); !ok {
			t.throttled.Add(int64(n))
			return false, retry
		}
	}
	return true, 0
}

// perturbed reports whether values are symbolically perturbed on ingest.
func (t *Tenant) perturbed() bool { return t.seq != nil }

// perturb maps a raw value to a distinct key (stream.Perturb semantics).
// The caller holds durMu. Past 2^PerturbBits copies of one value the key
// space is exhausted; the key is then reused and the occurrence counted in
// Ties (the protocol stays safe, the ε guarantee degrades — see package
// quantile's distinctness note).
func (t *Tenant) perturb(v uint64) uint64 {
	c := &t.seq.Get(v).Val
	s := *c
	if s+1 < 1<<stream.PerturbBits {
		*c = s + 1
	} else {
		t.ties.Add(1)
	}
	return v<<stream.PerturbBits | uint64(s)
}

// sendBatch hands a batch of already-perturbed keys for one site to the
// cluster; on success the cluster owns (and later recycles) the slice, on
// failure it is returned to the batch pool here. It is a no-op returning
// an error after the tenant closed.
func (t *Tenant) sendBatch(site int, keys []uint64) error {
	t.sendMu.RLock()
	defer t.sendMu.RUnlock()
	if t.closed {
		t.dropped.Add(int64(len(keys)))
		runtime.PutBatch(keys)
		return fmt.Errorf("tenant %q closed", t.cfg.Name)
	}
	if err := t.cluster().SendBatch(site, keys); err != nil {
		t.dropped.Add(int64(len(keys)))
		runtime.PutBatch(keys)
		return err
	}
	t.sent.Add(int64(len(keys)))
	return nil
}

// close marks the tenant closed and stops its cluster: gracefully (drain —
// everything already enqueued is processed) or immediately (queued items
// dropped).
func (t *Tenant) close(drain bool) {
	t.sendMu.Lock()
	if t.closed {
		t.sendMu.Unlock()
		return
	}
	t.closed = true
	t.sendMu.Unlock()
	if drain {
		t.cluster().Drain()
	} else {
		t.cluster().Stop()
	}
}

// isClosed reports whether close has begun.
func (t *Tenant) isClosed() bool {
	t.sendMu.RLock()
	defer t.sendMu.RUnlock()
	return t.closed
}

// processed counts the arrivals the tracker has absorbed, clusters drained
// in earlier reconfigurations included.
func (t *Tenant) processed() int64 {
	lc := t.clu.Load()
	return lc.base.Processed + lc.c.Processed()
}

// droppedTotal counts the arrivals lost to a close: refused mid-send, or
// discarded unbegun by the cluster stop.
func (t *Tenant) droppedTotal() int64 { return t.stats().Dropped + t.dropped.Load() }

// synced reports whether every successfully enqueued arrival has been
// processed by the tracker.
func (t *Tenant) synced() bool { return t.processed() >= t.sent.Load() }

// awaitSynced waits until the cluster has absorbed everything sent to it
// (Flush, checkpoint capture, recovery's replay). It reports false instead
// once the tenant has closed: a closed tenant's cluster may have dropped
// what it had not begun, so it may never catch up.
func (t *Tenant) awaitSynced() bool {
	for !t.synced() {
		if t.isClosed() {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// backlog is the quantity QueueShare bounds: records admitted but not yet
// applied to the tracker — still in an ingest call (queued), or sent to the
// cluster and waiting on a site channel. The loads are not one snapshot, so
// a racing delivery can skew it by a call's worth for an instant; the >=
// share check tolerates that.
func (t *Tenant) backlog() int64 {
	return max(0, t.queued.Load()+t.sent.Load()-t.processed())
}

// Config returns the tenant's configuration (Phis filled with defaults) at
// its live k.
func (t *Tenant) Config() TenantConfig {
	cfg := t.cfg
	cfg.K = t.K()
	return cfg
}

// Entry is one heavy hitter in a query response.
type Entry struct {
	Item  uint64  `json:"item"`
	Count int64   `json:"count"`
	Ratio float64 `json:"ratio"`
}

// HeavyHitters answers a φ-heavy-hitter query. Supported by hh tenants
// (directly) and allq tenants (extracted from ranks); phi must exceed eps.
// Like every query it is served from the version-keyed snapshot cache when
// coordinator state has not changed since the answer was computed, so query
// traffic between escalations never stalls ingest. The returned slice is
// shared with the cache — callers must not mutate it.
func (t *Tenant) HeavyHitters(phi float64) ([]Entry, error) {
	a, err := t.ask(query{shape: shapeHeavy, phi: phi})
	return a.entries, err
}

// Quantile answers a φ-quantile query with the raw (unperturbed) value.
// Quantile tenants answer only their configured Phis; allq tenants answer
// any φ in [0,1]. It errors before the first arrival.
func (t *Tenant) Quantile(phi float64) (uint64, error) {
	a, err := t.ask(query{shape: shapeQuantile, phi: phi})
	return a.value, err
}

// Rank answers "how many ingested values are < v" (allq tenants only),
// together with the coordinator's total estimate.
func (t *Tenant) Rank(v uint64) (rank, total int64, err error) {
	a, err := t.ask(query{shape: shapeRank, x: v})
	return a.count, a.total, err
}

// Frequency answers a point frequency query (hh tenants only): the
// coordinator's underestimate of the item's global count.
func (t *Tenant) Frequency(item uint64) (int64, error) {
	a, err := t.ask(query{shape: shapeFreq, x: item})
	return a.count, err
}

// ask answers q: the request checks, then the snapshot cache, then a
// quiescent read of the tracker, whose answer the cache keeps.
func (t *Tenant) ask(q query) (answer, error) {
	if tm := t.tm; tm != nil {
		tm.queries[q.shape].Inc()
	}
	if err := t.check(q); err != nil {
		return answer{}, err
	}
	if a, ok := t.cached(q); ok {
		t.countCache(true)
		return a, nil
	}
	t.countCache(false)
	// Declared only on a miss: the closure captures it, which moves it to
	// the heap, and a cache hit must not allocate.
	var a answer
	t.tr.Quiesce(func() {
		a = t.answers[q.shape](q)
		a.ver = t.version()
	})
	t.store(q, a)
	return a, nil
}

// check runs q's request checks in order: capability (a kind that cannot
// answer the shape reports ErrUnsupported whatever the arguments), the
// arguments, then data (ErrNoData). None takes a lock: the arguments are
// untrusted client input, so rejecting them must not cost a quiescent
// section that stalls ingest.
func (t *Tenant) check(q query) error {
	if t.answers[q.shape] == nil {
		return fmt.Errorf("tenant kind %q does not answer %s queries: %w",
			t.cfg.Kind, shapeNames[q.shape].noun, ErrUnsupported)
	}
	// The negated range forms also reject NaN, which would otherwise slip
	// past them and poison the snapshot cache with unmatchable keys.
	switch q.shape {
	case shapeHeavy:
		if !(q.phi > t.cfg.Eps && q.phi <= 1) {
			return fmt.Errorf("phi must be in (eps, 1], got %g (eps %g)", q.phi, t.cfg.Eps)
		}
	case shapeQuantile:
		if !(q.phi >= 0 && q.phi <= 1) {
			return fmt.Errorf("phi must be in [0,1], got %g", q.phi)
		}
		// A tenant that tracks a fixed set of phis (the quantile kind)
		// answers only those.
		if phis := t.cfg.Phis; len(phis) > 0 && !slices.Contains(phis, q.phi) {
			return fmt.Errorf("phi %g is not tracked (configured: %v)", q.phi, phis)
		}
		// The true total only grows, so a tracker that has seen an arrival
		// here still has when the quiescent read runs.
		if t.tr.TrueTotal() == 0 {
			return fmt.Errorf("tenant %q has %w", t.cfg.Name, ErrNoData)
		}
	case shapeRank:
		if q.x >= MaxPerturbedValue {
			return fmt.Errorf("value %d out of range [0, 2^%d)", q.x, 64-stream.PerturbBits)
		}
	}
	return nil
}

// TenantStats is the observability snapshot served by the stats endpoint.
type TenantStats struct {
	Name       string    `json:"name"`
	Kind       Kind      `json:"kind"`
	K          int       `json:"k"`
	Eps        float64   `json:"eps"`
	Phis       []float64 `json:"phis,omitempty"`
	Sketch     bool      `json:"sketch,omitempty"`
	EstTotal   int64     `json:"est_total"`   // coordinator's view of |A|
	Processed  int64     `json:"processed"`   // arrivals fed to the tracker
	Batches    int64     `json:"batches"`     // batch deliveries processed
	Dropped    int64     `json:"dropped"`     // arrivals lost (close/stop)
	Ties       int64     `json:"ties"`        // perturbation overflows
	Msgs       int64     `json:"msgs"`        // protocol messages site↔coordinator
	Words      int64     `json:"words"`       // protocol words site↔coordinator
	Rounds     int       `json:"rounds"`      // completed protocol rounds
	SiteCounts []int64   `json:"site_counts"` // exact arrivals per site

	// QoS admission state (zero for tenants with no limits configured).
	RateLimit  float64 `json:"rate_limit,omitempty"`  // configured records/second cap
	QueueShare int     `json:"queue_share,omitempty"` // configured queue-share bound
	Throttled  int64   `json:"throttled,omitempty"`   // records denied admission
	Queued     int64   `json:"queued,omitempty"`      // records admitted, not yet applied to the tracker

	// Tree maintenance (allq tenants; zero for the other kinds).
	Rebuilds       int `json:"rebuilds,omitempty"`        // partial tree rebuilds, leaf splits included
	LeafSplits     int `json:"leaf_splits,omitempty"`     // rebuilds that split a full leaf
	HeightBound    int `json:"height_bound,omitempty"`    // the current round's tree height cap
	HeightRebuilds int `json:"height_rebuilds,omitempty"` // rounds started because the tree outgrew its cap
}

// treeMaintainer is the tracker surface behind TenantStats' tree
// maintenance counters; only trackers that keep a rebuilt tree have it.
type treeMaintainer interface {
	Rebuilds() int
	LeafSplits() int
	HeightBound() int
	HeightRebuilds() int
}

// Stats captures the tenant's current statistics under a consistent
// coordinator snapshot. The whole snapshot reads through the unified
// core.Tracker surface — no per-kind dispatch.
func (t *Tenant) Stats() TenantStats {
	cfg := t.Config()
	st := TenantStats{
		Name:   cfg.Name,
		Kind:   cfg.Kind,
		K:      cfg.K,
		Eps:    cfg.Eps,
		Phis:   cfg.Phis,
		Sketch: cfg.Sketch,
	}
	cs := t.stats()
	st.Processed = cs.Processed
	st.Batches = cs.Batches
	st.Dropped = cs.Dropped + t.dropped.Load()
	st.Ties = t.ties.Load()
	st.RateLimit = cfg.RateLimit
	st.QueueShare = cfg.QueueShare
	st.Throttled = t.throttled.Load()
	st.Queued = t.backlog()
	t.tr.Quiesce(func() {
		st.EstTotal = t.tr.EstTotal()
		st.Rounds = t.tr.Rounds()
		if tm, ok := t.tr.(treeMaintainer); ok {
			st.Rebuilds, st.LeafSplits = tm.Rebuilds(), tm.LeafSplits()
			st.HeightBound, st.HeightRebuilds = tm.HeightBound(), tm.HeightRebuilds()
		}
		c := t.tr.Meter().Total()
		st.Msgs, st.Words = c.Msgs, c.Words
		// Read k from the tracker inside the quiescent section: Quiesce
		// excludes Reconfigure, so its site count cannot change under the
		// loop. The tenant's kLive is stored only after Reconfigure returns,
		// so it can still name the old k here.
		k := t.tr.K()
		st.SiteCounts = make([]int64, k)
		for j := 0; j < k; j++ {
			st.SiteCounts[j] = t.tr.SiteCount(j)
		}
	})
	return st
}
