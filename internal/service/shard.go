package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"disttrack/internal/runtime"
)

// errShuttingDown marks rejections caused by pipeline teardown rather than
// bad input; the networked ingest path translates it into a connection drop
// (sender retries) instead of a frame reject (sender discards).
var errShuttingDown = errors.New("service shutting down")

// Record is one ingested arrival: a value observed at one site of one
// tenant's distributed stream.
type Record struct {
	Tenant string `json:"tenant"`
	Site   int    `json:"site"`
	Value  uint64 `json:"value"`
}

// RecordError reports one rejected record by its index in the submitted
// batch. Code distinguishes throttles (codeThrottled — retry later) from
// validation failures (empty — retrying is pointless).
type RecordError struct {
	Index int    `json:"index"`
	Err   string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// sharder is the ingest pipeline: Ingest validates a record batch and groups
// it by (tenant, site) in the caller's goroutine, each tenant is hashed onto
// one worker shard, and the shard feeds the ready-made groups to the tenants'
// clusters. A tenant's records always land on the same shard, preserving
// per-tenant arrival order and making per-tenant ingest state single-writer.
type sharder struct {
	reg    *Registry
	met    *serverMetrics // nil when uninstrumented (direct construction in tests)
	shards []*shard

	// assigned pins tenants to explicit shards (tenant migration overrides
	// the hash so a migrated tenant's records land on its new worker).
	// hasAssign keeps the hot path lock-free while the map is empty — the
	// overwhelmingly common case.
	assignMu  sync.RWMutex
	assigned  map[string]int
	hasAssign atomic.Bool

	scratch sync.Pool // *ingestScratch

	accepted  atomic.Int64
	rejected  atomic.Int64
	throttled atomic.Int64 // denied by per-tenant QoS admission
	lost      atomic.Int64 // accepted but undeliverable (tenant deleted mid-flight)

	// mu serializes Ingest/Flush (read side) against Close (write side):
	// closing a shard channel while a handler is sending on it would panic,
	// and HTTP handlers can outlive the server's closing flag check.
	mu     sync.RWMutex
	closed bool
}

type shard struct {
	ch chan shardMsg
	wg *sync.WaitGroup
}

// shardMsg carries one ingest call's groups for the shard, or a flush
// barrier.
type shardMsg struct {
	batch   *groupBatch
	barrier chan<- struct{}
}

// tenantGroup is one (tenant, site) value batch on its way to the tenant's
// cluster. t is the instance the ingest call resolved; delivery re-checks it
// against the registry.
type tenantGroup struct {
	t      *Tenant
	site   int
	values []uint64
}

// groupBatch is what one ingest call hands one shard: ready-made groups,
// each tenant's groups adjacent so the worker takes that tenant's delivery
// gate once. Batches from the networked path hold one group and carry the
// frame's provenance into the WAL, so recovery can re-derive the
// coordinator's per-node dedup cursors from the replay tail ("" / 0 on the
// record path). The worker recycles the batch once delivered.
type groupBatch struct {
	groups  []tenantGroup
	node    string
	nodeSeq uint64
}

var groupBatchPool = sync.Pool{New: func() any { return new(groupBatch) }}

// ingestScratch is the per-call state of Ingest, pooled so that steady-state
// ingest allocates nothing: the grouper, and the batch under construction
// for each shard (nil while the call has nothing for that shard).
type ingestScratch struct {
	g     grouper[*Tenant]
	parts []*groupBatch
}

func newSharder(reg *Registry, n, queue int, met *serverMetrics) *sharder {
	sh := &sharder{reg: reg, met: met}
	sh.scratch.New = func() any { return &ingestScratch{parts: make([]*groupBatch, n)} }
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		s := &shard{ch: make(chan shardMsg, queue), wg: &wg}
		sh.shards = append(sh.shards, s)
		wg.Add(1)
		go sh.worker(s)
	}
	return sh
}

// hashShard is the default tenant → shard-index hash: FNV-1a, inlined (the
// hash/fnv hasher would allocate), reduced in uint32 so the index cannot go
// negative where int is 32 bits.
func (sh *sharder) hashShard(tenant string) int {
	h := uint32(2166136261)
	for i := 0; i < len(tenant); i++ {
		h ^= uint32(tenant[i])
		h *= 16777619
	}
	return int(h % uint32(len(sh.shards)))
}

// shardIndexOf reports which shard index currently owns the tenant: an
// explicit assignment (tenant migration) overrides the hash.
func (sh *sharder) shardIndexOf(tenant string) int {
	if sh.hasAssign.Load() {
		sh.assignMu.RLock()
		idx, ok := sh.assigned[tenant]
		sh.assignMu.RUnlock()
		if ok {
			return idx
		}
	}
	return sh.hashShard(tenant)
}

// numShards returns the worker count (migration targets are validated
// against it).
func (sh *sharder) numShards() int { return len(sh.shards) }

// assignShard pins a tenant's records to shard idx, overriding the hash
// (idx < 0 clears the pin, restoring hash placement). New ingest routes to
// the new shard immediately; records already queued on the old shard are the
// migration's problem (it flushes before swapping state).
func (sh *sharder) assignShard(tenant string, idx int) error {
	if idx >= len(sh.shards) {
		return fmt.Errorf("shard %d out of range [0,%d)", idx, len(sh.shards))
	}
	sh.assignMu.Lock()
	defer sh.assignMu.Unlock()
	if idx < 0 {
		delete(sh.assigned, tenant)
	} else {
		if sh.assigned == nil {
			sh.assigned = make(map[string]int)
		}
		sh.assigned[tenant] = idx
	}
	sh.hasAssign.Store(len(sh.assigned) > 0)
	return nil
}

// Ingest validates recs, groups the valid ones by (tenant, site) and
// enqueues each shard's groups as one message, blocking while a shard queue
// is full. Validation is synchronous so callers learn about unknown tenants,
// out-of-range sites and out-of-range values immediately; processing is
// asynchronous (see Flush for the visibility barrier). Returns the number
// accepted, the per-record rejections (throttles carry Code ==
// codeThrottled), and — when any record was throttled — the largest
// Retry-After hint among them.
func (sh *sharder) Ingest(recs []Record) (int, []RecordError, time.Duration) {
	if m := sh.met; m != nil {
		m.batchRecords.Observe(float64(len(recs)))
		defer func(t0 time.Time) {
			m.ingestSecs.Observe(time.Since(t0).Seconds())
		}(time.Now())
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var errs []RecordError
	var retryAfter time.Duration
	if sh.closed {
		for i := range recs {
			errs = append(errs, RecordError{Index: i, Err: "service shutting down"})
		}
		sh.rejected.Add(int64(len(errs)))
		return 0, errs, 0
	}
	// Group in the caller's goroutine. The registry, the grouper's index and
	// the tenant's k / kind / QoS flag are consulted once per run of records
	// naming the same tenant; within a run a record costs its range checks
	// and a count into its site's slot.
	sc := sh.scratch.Get().(*ingestScratch)
	sc.g.begin(len(recs))
	var (
		cur       *Tenant // the run's tenant; nil = no such tenant
		first     int32   // cur's first slot in the grouper
		k         int     // the site count this call holds cur to
		perturbed bool
		limited   bool
	)
	throttles := 0
	for i := range recs {
		rec := &recs[i]
		if i == 0 || rec.Tenant != recs[i-1].Tenant {
			if cur = sh.reg.Get(rec.Tenant); cur != nil {
				first, k = sc.g.open(cur, cur.K())
				perturbed, limited = cur.perturbed(), cur.limited
			}
		}
		if cur == nil {
			errs = append(errs, RecordError{Index: i, Err: fmt.Sprintf("tenant %q not found", rec.Tenant)})
			continue
		}
		if rec.Site < 0 || rec.Site >= k {
			errs = append(errs, RecordError{Index: i,
				Err: fmt.Sprintf("site %d out of range [0,%d)", rec.Site, k)})
			continue
		}
		if perturbed && rec.Value >= MaxPerturbedValue {
			errs = append(errs, RecordError{Index: i,
				Err: fmt.Sprintf("value %d out of range [0, %d) for kind %q", rec.Value, MaxPerturbedValue, cur.cfg.Kind)})
			continue
		}
		if limited {
			// QoS admission is per record and runs after validation: a
			// throttle means "valid but not now", and only valid traffic
			// should drain the rate bucket. queued moves per record too, so
			// the queue-share bound bites inside a batch.
			if ok, retry := cur.admit(1); !ok {
				throttles++
				retryAfter = max(retryAfter, retry)
				errs = append(errs, RecordError{Index: i, Code: codeThrottled,
					Err: fmt.Sprintf("tenant %q over its ingest limit, retry in %v", rec.Tenant, retry)})
				continue
			}
			cur.queued.Add(1)
		}
		sc.g.add(i, first+int32(rec.Site))
	}
	// Hand each shard one message: its tenants' groups, each tenant's
	// together. Tenants without QoS account queued here, once per group.
	var (
		last *Tenant
		part *groupBatch
	)
	sc.g.emit(recs, func(t *Tenant, site int, values []uint64) {
		if t != last {
			last = t
			idx := sh.shardIndexOf(t.cfg.Name)
			if sc.parts[idx] == nil {
				sc.parts[idx] = groupBatchPool.Get().(*groupBatch)
			}
			part = sc.parts[idx]
		}
		if !t.limited {
			t.queued.Add(int64(len(values)))
		}
		part.groups = append(part.groups, tenantGroup{t: t, site: site, values: values})
	})
	for i, part := range sc.parts {
		if part != nil {
			sc.parts[i] = nil
			sh.shards[i].ch <- shardMsg{batch: part}
		}
	}
	sh.scratch.Put(sc)
	accepted := len(recs) - len(errs)
	sh.accepted.Add(int64(accepted))
	sh.throttled.Add(int64(throttles))
	sh.rejected.Add(int64(len(errs) - throttles))
	return accepted, errs, retryAfter
}

// IngestGrouped is the remoteShard ingest path: it accepts one
// already-grouped (tenant, site) value batch — typically decoded from a
// network frame — validates it against the tenant's configuration, and
// enqueues it on the tenant's owning shard in a single channel operation.
// The batch then flows intact into the tenant's cluster, where the
// tracker's FeedLocalBatch ingests it with one site-lock acquisition per
// escalation-free run. Out-of-range values for perturbed kinds are
// filtered and counted rejected; a nil tenant or out-of-range site refuses
// the whole batch with a non-nil error (accepted = 0) so the transport can
// reject the frame. QoS admission runs on the surviving values as one unit:
// a denied batch is dropped whole and counted throttled — NOT rejected,
// because the frame is still acked (a frame reject would make the sender
// discard it permanently, turning a transient throttle into data loss the
// sender never learns about; drop accounting is the TCP edge's contract).
// The sharder takes ownership of values in every case: batches it cannot
// deliver go back to the runtime batch pool.
func (sh *sharder) IngestGrouped(tenant string, site int, values []uint64, node string, nodeSeq uint64) (accepted, rejected, throttled int, err error) {
	if m := sh.met; m != nil {
		m.batchRecords.Observe(float64(len(values)))
		defer func(t0 time.Time) {
			m.ingestSecs.Observe(time.Since(t0).Seconds())
		}(time.Now())
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.closed {
		runtime.PutBatch(values)
		return 0, 0, 0, errShuttingDown
	}
	t := sh.reg.Get(tenant)
	if t == nil {
		sh.rejected.Add(int64(len(values)))
		runtime.PutBatch(values)
		return 0, len(values), 0, fmt.Errorf("tenant %q not found", tenant)
	}
	if k := t.K(); site < 0 || site >= k {
		sh.rejected.Add(int64(len(values)))
		runtime.PutBatch(values)
		return 0, len(values), 0, fmt.Errorf("site %d out of range [0,%d)", site, k)
	}
	if t.perturbed() {
		kept := values[:0]
		for _, v := range values {
			if v >= MaxPerturbedValue {
				rejected++
				continue
			}
			kept = append(kept, v)
		}
		values = kept
	}
	sh.rejected.Add(int64(rejected))
	if len(values) == 0 {
		runtime.PutBatch(values)
		return 0, rejected, 0, nil
	}
	if ok, _ := t.admit(len(values)); !ok {
		throttled = len(values)
		sh.throttled.Add(int64(throttled))
		runtime.PutBatch(values)
		return 0, rejected, throttled, nil
	}
	t.queued.Add(int64(len(values)))
	b := groupBatchPool.Get().(*groupBatch)
	b.groups = append(b.groups, tenantGroup{t: t, site: site, values: values})
	b.node, b.nodeSeq = node, nodeSeq
	sh.shards[sh.shardIndexOf(tenant)].ch <- shardMsg{batch: b}
	sh.accepted.Add(int64(len(values)))
	return len(values), rejected, 0, nil
}

// worker drains one shard queue, feeding each batch's groups to the tenants'
// clusters. Owning a tenant's deliveries is what makes the worker the single
// writer of its perturbation state.
func (sh *sharder) worker(s *shard) {
	defer s.wg.Done()
	for msg := range s.ch {
		if msg.barrier != nil {
			msg.barrier <- struct{}{}
			continue
		}
		sh.deliverBatch(msg.batch)
	}
}

// deliverBatch delivers one ingest call's groups, one tenant's at a time,
// and recycles the batch.
func (sh *sharder) deliverBatch(b *groupBatch) {
	gs := b.groups
	for len(gs) > 0 {
		n := 1
		for n < len(gs) && gs[n].t == gs[0].t {
			n++
		}
		sh.deliverGroups(gs[:n], b.node, b.nodeSeq)
		gs = gs[n:]
	}
	clear(b.groups)
	*b = groupBatch{groups: b.groups[:0]}
	groupBatchPool.Put(b)
}

// deliverGroups is the one delivery path: it feeds one tenant's groups from
// one ingest call to the tenant's cluster — per group, perturb in place
// (this goroutine owns the tenant's perturbation state), WAL append, one
// SendBatch, the cluster taking ownership of the values. The whole step runs
// under the tenant's delivery gate (durMu), so neither a checkpoint nor a
// membership operation captures state between a tenant's groups, and the
// get-lock-recheck loop makes it safe against the registry swapping the
// instance (tenant migration restores a fresh Tenant) between the ingest
// call's lookup and the lock: the delivery would otherwise land on a drained
// tracker and the records would vanish.
func (sh *sharder) deliverGroups(gs []tenantGroup, node string, nodeSeq uint64) {
	t, name := gs[0].t, gs[0].t.cfg.Name
	t.durMu.Lock()
	for sh.reg.Get(name) != t {
		t.durMu.Unlock() // deleted, or lost a migration race: retry against the new instance
		if t = sh.reg.Get(name); t == nil {
			for _, g := range gs {
				sh.lost.Add(int64(len(g.values))) // tenant deleted between accept and delivery
				runtime.PutBatch(g.values)
			}
			return
		}
		t.durMu.Lock()
	}
	defer t.durMu.Unlock()
	k, perturbed := t.K(), t.perturbed()
	for _, g := range gs {
		// The group leaves the shard pipeline: release its queue-share. (If
		// the tenant was deleted and recreated in flight, the release lands
		// on the new instance — a transient undercount the >= share check
		// tolerates.)
		t.queued.Add(-int64(len(g.values)))
		site := g.site
		if site >= k {
			// Membership shrank between accept and delivery: fold onto site
			// 0, matching the engine's Reconfigure fold, so no arrival is
			// lost.
			site = 0
		}
		if perturbed {
			for i, v := range g.values {
				g.values[i] = t.perturb(v)
			}
		}
		sh.walAppend(t, site, g.values, node, nodeSeq)
		if err := t.sendBatch(site, g.values); err != nil {
			sh.lost.Add(int64(len(g.values)))
		}
	}
}

// walAppend logs one perturbed batch to the tenant's WAL (caller holds
// durMu), carrying the remote frame's provenance so recovery can re-derive
// per-node dedup cursors ("" / 0 on the HTTP path). An append failure fails
// open: the batch is still delivered — losing durability for it beats
// refusing ingest the moment a disk degrades — and the error is counted so
// operators see it (see docs/durability.md).
func (sh *sharder) walAppend(t *Tenant, site int, keys []uint64, node string, nodeSeq uint64) {
	if t.dur == nil {
		return
	}
	if _, err := t.dur.Append(site, keys, node, nodeSeq); err != nil && sh.met != nil {
		sh.met.walErrors.Inc()
	}
}

// Flush blocks until every record accepted before the call is visible to
// queries: first a barrier through every shard queue (all accepted batches
// delivered to the clusters), then a wait until each tenant's cluster has
// processed everything delivered. Closed tenants are skipped; after Close
// it is a no-op (Close itself flushes by draining the queues).
func (sh *sharder) Flush() {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.closed {
		return
	}
	done := make(chan struct{}, len(sh.shards))
	for _, s := range sh.shards {
		s.ch <- shardMsg{barrier: done}
	}
	for range sh.shards {
		<-done
	}
	for _, t := range sh.reg.all() {
		for !t.isClosed() && !t.synced() {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// Close stops the pipeline: no further records are accepted, shard queues
// are closed, and the workers finish delivering everything already
// accepted. Safe against concurrent Ingest/Flush; idempotent.
func (sh *sharder) Close() {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return
	}
	sh.closed = true
	sh.mu.Unlock()
	for _, s := range sh.shards {
		close(s.ch)
	}
	sh.shards[0].wg.Wait()
}

// Accepted, Rejected, Throttled and Lost return the pipeline's lifetime
// record counters: accepted at ingest, rejected at validation, denied by
// per-tenant QoS admission, and accepted but undeliverable (tenant deleted
// or closed before delivery).
func (sh *sharder) Accepted() int64  { return sh.accepted.Load() }
func (sh *sharder) Rejected() int64  { return sh.rejected.Load() }
func (sh *sharder) Throttled() int64 { return sh.throttled.Load() }
func (sh *sharder) Lost() int64      { return sh.lost.Load() }

// QueueDepths returns the current queue length of each shard, in shard
// order. The snapshot is inherently racy against the workers — gauge
// material, not an invariant.
func (sh *sharder) QueueDepths() []int {
	out := make([]int, len(sh.shards))
	for i, s := range sh.shards {
		out[i] = len(s.ch)
	}
	return out
}
