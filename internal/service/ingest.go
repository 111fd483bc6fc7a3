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

// ingester is the ingest path. Ingest validates a record batch, groups it by
// (tenant, site) and delivers each tenant's groups to that tenant's cluster,
// all in the caller's goroutine: a record crosses one queue — its site
// channel — on its way to the tracker. The tenant's delivery gate (durMu)
// serializes concurrent callers per tenant, which is what makes a tenant's
// perturbation state and WAL single-writer.
type ingester struct {
	reg *Registry
	met *serverMetrics // nil when uninstrumented (direct construction in tests)

	scratch sync.Pool // *ingestScratch

	accepted  atomic.Int64
	rejected  atomic.Int64
	throttled atomic.Int64 // denied by per-tenant QoS admission
	lost      atomic.Int64 // accepted but undeliverable (tenant deleted mid-flight)

	// mu fences Ingest/Flush (read side) against Close (write side): Close
	// returns only once no call is mid-delivery, so the final checkpoints
	// that follow it cover everything ever accepted.
	mu     sync.RWMutex
	closed bool
}

// tenantGroup is one (tenant, site) value batch on its way to the tenant's
// cluster. t is the instance the ingest call resolved; delivery re-checks it
// against the registry.
type tenantGroup struct {
	t      *Tenant
	site   int
	values []uint64
}

// ingestScratch is the per-call state of Ingest, pooled so that steady-state
// ingest allocates nothing: the grouper, and the call's group list (each
// tenant's groups adjacent).
type ingestScratch struct {
	g      grouper
	groups []tenantGroup
}

func newIngester(reg *Registry, met *serverMetrics) *ingester {
	in := &ingester{reg: reg, met: met}
	in.scratch.New = func() any { return new(ingestScratch) }
	return in
}

// Ingest validates recs, groups the valid ones by (tenant, site) and
// delivers each tenant's groups to its cluster — WAL append included — before
// returning, blocking while a site channel is full. Validation is synchronous
// so callers learn about unknown tenants, out-of-range sites and out-of-range
// values immediately; the trackers absorb the records asynchronously (see
// Flush for the visibility barrier). Returns the number accepted, the
// per-record rejections (throttles carry Code == codeThrottled), and — when
// any record was throttled — the largest Retry-After hint among them.
func (in *ingester) Ingest(recs []Record) (int, []RecordError, time.Duration) {
	if m := in.met; m != nil {
		m.batchRecords.Observe(float64(len(recs)))
		defer func(t0 time.Time) {
			m.ingestSecs.Observe(time.Since(t0).Seconds())
		}(time.Now())
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	var errs []RecordError
	var retryAfter time.Duration
	if in.closed {
		for i := range recs {
			errs = append(errs, RecordError{Index: i, Err: "service shutting down"})
		}
		in.rejected.Add(int64(len(errs)))
		return 0, errs, 0
	}
	// The registry, the grouper's index and the tenant's k / kind / QoS flag
	// are consulted once per run of records naming the same tenant; within a
	// run a record costs its range checks and a count into its site's slot.
	sc := in.scratch.Get().(*ingestScratch)
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
			if cur = in.reg.Get(rec.Tenant); cur != nil {
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
	sc.g.emit(recs, func(t *Tenant, site int, values []uint64) {
		sc.groups = append(sc.groups, tenantGroup{t: t, site: site, values: values})
	})
	// Deliver one tenant's groups at a time, so the call takes each tenant's
	// gate once.
	for gs := sc.groups; len(gs) > 0; {
		n := 1
		for n < len(gs) && gs[n].t == gs[0].t {
			n++
		}
		in.deliverGroups(gs[:n], "", 0)
		gs = gs[n:]
	}
	clear(sc.groups)
	sc.groups = sc.groups[:0]
	in.scratch.Put(sc)
	accepted := len(recs) - len(errs)
	in.accepted.Add(int64(accepted))
	in.throttled.Add(int64(throttles))
	in.rejected.Add(int64(len(errs) - throttles))
	return accepted, errs, retryAfter
}

// IngestGrouped is the networked ingest path: it accepts one already-grouped
// (tenant, site) value batch decoded from a site node's frame, validates it
// against the tenant's configuration, and delivers it to the tenant's cluster
// — WAL append included, carrying the frame's provenance so recovery can
// re-derive the coordinator's per-node dedup cursors — before returning, so
// the transport's ack follows the append. Out-of-range values for perturbed
// kinds are filtered and counted rejected; a nil tenant or out-of-range site
// refuses the whole batch with a non-nil error (accepted = 0) so the
// transport can reject the frame. QoS admission runs on the surviving values
// as one unit: a denied batch is dropped whole and counted throttled — NOT
// rejected, because the frame is still acked (a frame reject would make the
// sender discard it permanently, turning a transient throttle into data loss
// the sender never learns about; drop accounting is the TCP edge's contract).
// The ingester takes ownership of values in every case: batches it cannot
// deliver go back to the runtime batch pool.
func (in *ingester) IngestGrouped(tenant string, site int, values []uint64, node string, nodeSeq uint64) (accepted, rejected, throttled int, err error) {
	if m := in.met; m != nil {
		m.batchRecords.Observe(float64(len(values)))
		defer func(t0 time.Time) {
			m.ingestSecs.Observe(time.Since(t0).Seconds())
		}(time.Now())
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	if in.closed {
		runtime.PutBatch(values)
		return 0, 0, 0, errShuttingDown
	}
	t := in.reg.Get(tenant)
	if t == nil {
		in.rejected.Add(int64(len(values)))
		runtime.PutBatch(values)
		return 0, len(values), 0, fmt.Errorf("tenant %q not found", tenant)
	}
	if k := t.K(); site < 0 || site >= k {
		in.rejected.Add(int64(len(values)))
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
	in.rejected.Add(int64(rejected))
	if len(values) == 0 {
		runtime.PutBatch(values)
		return 0, rejected, 0, nil
	}
	if t.limited {
		if ok, _ := t.admit(len(values)); !ok {
			throttled = len(values)
			in.throttled.Add(int64(throttled))
			runtime.PutBatch(values)
			return 0, rejected, throttled, nil
		}
		t.queued.Add(int64(len(values)))
	}
	accepted = len(values) // delivery hands the slice to the cluster
	gs := [1]tenantGroup{{t: t, site: site, values: values}}
	in.deliverGroups(gs[:], node, nodeSeq)
	in.accepted.Add(int64(accepted))
	return accepted, rejected, 0, nil
}

// deliverGroups is the one delivery path: it feeds one tenant's groups from
// one ingest call to the tenant's cluster — per group, perturb in place, WAL
// append, one SendBatch, the cluster taking ownership of the values. The
// whole step runs in the submitting goroutine under the tenant's delivery
// gate (durMu): the gate is what makes the tenant's perturbation state and
// WAL single-writer, and neither a checkpoint nor a reconfiguration captures
// state between a tenant's groups. SendBatch blocks while a site channel is
// full, gate held — deadlock-free because site goroutines never take it. The
// get-lock-recheck loop guards delete-then-recreate between the call's lookup
// and the lock: the records land on the new instance or are counted lost,
// never on a closed one.
func (in *ingester) deliverGroups(gs []tenantGroup, node string, nodeSeq uint64) {
	t, name := gs[0].t, gs[0].t.cfg.Name
	if t.limited {
		// The groups leave the call whatever happens next: release their
		// admission charge on the instance that took it.
		n := 0
		for _, g := range gs {
			n += len(g.values)
		}
		defer t.queued.Add(-int64(n))
	}
	t.durMu.Lock()
	for in.reg.Get(name) != t {
		t.durMu.Unlock() // deleted under us: retry against a recreated instance
		if t = in.reg.Get(name); t == nil {
			for _, g := range gs {
				in.lost.Add(int64(len(g.values))) // tenant deleted between accept and delivery
				runtime.PutBatch(g.values)
			}
			return
		}
		t.durMu.Lock()
	}
	defer t.durMu.Unlock()
	k, perturbed := t.K(), t.perturbed()
	for _, g := range gs {
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
		in.walAppend(t, site, g.values, node, nodeSeq)
		if err := t.sendBatch(site, g.values); err != nil {
			in.lost.Add(int64(len(g.values)))
		}
	}
}

// walAppend logs one perturbed batch to the tenant's WAL (caller holds
// durMu), carrying the remote frame's provenance so recovery can re-derive
// per-node dedup cursors ("" / 0 on the HTTP path). An append failure fails
// open: the batch is still delivered — losing durability for it beats
// refusing ingest the moment a disk degrades — and the error is counted so
// operators see it (see docs/durability.md).
func (in *ingester) walAppend(t *Tenant, site int, keys []uint64, node string, nodeSeq uint64) {
	if t.dur == nil {
		return
	}
	if _, err := t.dur.Append(site, keys, node, nodeSeq); err != nil && in.met != nil {
		in.met.walErrors.Inc()
	}
}

// Flush blocks until every record accepted by an ingest call that has
// returned is visible to queries: such a call has already handed its records
// to the clusters, so the barrier is a wait until each tenant's cluster has
// processed everything sent to it. Closed tenants are skipped; after Close it
// is a no-op (the registry's Close drains the clusters).
func (in *ingester) Flush() {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if in.closed {
		return
	}
	for _, t := range in.reg.all() {
		t.awaitSynced()
	}
}

// Close stops ingest: it waits for in-flight calls to finish delivering, and
// every later call is refused. Idempotent.
func (in *ingester) Close() {
	in.mu.Lock()
	in.closed = true
	in.mu.Unlock()
}

// Accepted, Rejected, Throttled and Lost return the lifetime record counters:
// accepted at ingest, rejected at validation, denied by per-tenant QoS
// admission, and accepted but undeliverable (tenant deleted or closed before
// delivery).
func (in *ingester) Accepted() int64  { return in.accepted.Load() }
func (in *ingester) Rejected() int64  { return in.rejected.Load() }
func (in *ingester) Throttled() int64 { return in.throttled.Load() }
func (in *ingester) Lost() int64      { return in.lost.Load() }
