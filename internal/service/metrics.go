package service

import (
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"disttrack/internal/core/engine"
	"disttrack/internal/obs"
	"disttrack/internal/obs/wireobs"
	"disttrack/internal/remote"
)

// serverMetrics is the server's obs instrumentation: one registry exposed at
// GET /metrics, every family registered up front (so scrapes always see the
// full catalog), and children resolved once per labeled entity. Each fact is
// exported once, by whichever discipline matches who keeps it:
//
//   - Inline atomics where the metrics plane is the only keeper: the engine
//     fast path (engine.Metrics children, resolved per tenant at creation),
//     the query counters, checkpoints and the HTTP middleware — one atomic
//     per event.
//   - Direct histogram observes on the per-request ingest paths, where one
//     time.Now pair per batch is noise.
//   - Func-backed series for counts their owner already keeps (ingest
//     totals, each tenant's cluster and admission counters, transport and
//     WAL counts): read from the owner at exposition, never copied.
//
// One scrape hook (syncObs) covers what a read function cannot: the
// tenants' wire meters, which must be read under Quiesce, and the remote
// ingest path's per-node series and transport meter, whose label sets are
// discovered at scrape time.
type serverMetrics struct {
	reg   *obs.Registry
	start time.Time

	// Engine fast-path instrumentation, per tenant (see engine.Metrics).
	engRuns     *obs.CounterVec   // {tenant}
	engSplits   *obs.CounterVec   // {tenant}
	engEsc      *obs.CounterVec   // {tenant}
	engAcquires *obs.CounterVec   // {tenant}
	engSaved    *obs.CounterVec   // {tenant}
	engBoot     *obs.CounterVec   // {tenant}
	engSlow     *obs.HistogramVec // {tenant}
	engQuiesce  *obs.HistogramVec // {tenant}

	// Cascades: the slow-path holds that locked every site.
	engCascadeHold *obs.HistogramVec // {tenant}

	// Per-tenant series read from the tenant itself (bindTenant).
	clProcessed  *obs.CounterVec // {tenant}
	clBatches    *obs.CounterVec // {tenant}
	clQueue      *obs.GaugeVec   // {tenant}
	tenDropped   *obs.CounterVec // {tenant}
	tenTies      *obs.CounterVec // {tenant}
	tenThrottled *obs.CounterVec // {tenant}
	tenQueued    *obs.GaugeVec   // {tenant}

	// Query-path instrumentation.
	queries     *obs.CounterVec // {tenant, query}
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	etagHits    *obs.Counter

	// bridge mirrors each tenant's wire.Meter (the paper's word-cost
	// accounting) under that tenant's quiescent query lock.
	bridge *wireobs.Bridge

	// Ingest path instrumentation.
	batchRecords *obs.Histogram
	ingestSecs   *obs.Histogram
	decode       decodeCounters // POST /v1/ingest bodies by decoder

	// Networked ingest (coord role): the per-node fault state and the
	// transport meter, synced by the scrape hook.
	nodeConnected    *obs.GaugeVec   // {node}
	nodeBreakerState *obs.GaugeVec   // {node}; 0 closed, 1 open, 2 half-open
	nodeBreakerTrips *obs.CounterVec // {node}
	remoteBridge     *wireobs.Bridge

	// Durable plane (checkpoints + WAL; zero-valued without a data dir).
	ckptTotal  *obs.Counter
	ckptBytes  *obs.Counter
	ckptSecs   *obs.Histogram
	ckptErrors *obs.Counter
	walErrors  *obs.Counter

	// HTTP API instrumentation. The children are resolved once per series
	// and cached by instrumentHTTP, so a request touches no family map.
	httpReqs      *obs.CounterVec   // {route, method, code}
	httpSecs      *obs.HistogramVec // {route}
	httpInflight  *obs.Gauge
	httpSecsCache sync.Map // route → *obs.Histogram
	httpReqsCache sync.Map // httpReqKey → *obs.Counter
}

// newServerMetrics registers s's full metric catalog on a fresh registry.
// The func-backed series read s's parts at exposition, so they may be
// registered before those parts exist.
func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{reg: reg, start: time.Now()}

	m.engRuns = reg.NewCounterVec("disttrack_engine_batch_runs_total",
		"Escalation-free runs consumed by FeedLocalBatch.", "tenant")
	m.engSplits = reg.NewCounterVec("disttrack_engine_batch_splits_total",
		"Batch runs ended early by a threshold crossing.", "tenant")
	m.engEsc = reg.NewCounterVec("disttrack_engine_escalations_total",
		"Coordinator slow-path entries.", "tenant")
	m.engAcquires = reg.NewCounterVec("disttrack_engine_slow_path_acquires_total",
		"Slow-path holds taken by the escalation path (plus saved acquires, equals escalations).", "tenant")
	m.engSaved = reg.NewCounterVec("disttrack_engine_saved_acquires_total",
		"Bootstrap forwards absorbed by an already-held slow-path hold.", "tenant")
	m.engBoot = reg.NewCounterVec("disttrack_engine_boot_handoffs_total",
		"Bootstrap-to-tracking transitions.", "tenant")
	m.engSlow = reg.NewHistogramVec("disttrack_engine_slow_path_hold_seconds",
		"Seconds an escalation held the coordinator lock and its site's (every site's once a cascade ran), timed for one hold in 64; disttrack_engine_slow_path_acquires_total is the count.",
		obs.DurationBuckets(), "tenant")
	m.engQuiesce = reg.NewHistogramVec("disttrack_engine_quiesce_hold_seconds",
		"Seconds each quiescent section (consistent query) held the protocol locks.",
		obs.DurationBuckets(), "tenant")
	m.engCascadeHold = reg.NewHistogramVec("disttrack_engine_cascade_hold_seconds",
		"Seconds each cascade (a slow-path hold that locked every site: round builds, splits, relocations, rebuilds, broadcasts, the bootstrap handoff) held every site's lock, from locking them to release; every cascade is timed, so the count is the number of cascades.",
		obs.DurationBuckets(), "tenant")

	m.clProcessed = reg.NewCounterVec("disttrack_cluster_processed_total",
		"Arrivals fully fed to the tracker by the tenant's site goroutines, across membership changes.", "tenant")
	m.clBatches = reg.NewCounterVec("disttrack_cluster_batches_total",
		"Batch deliveries processed by the tenant's site goroutines, across membership changes.", "tenant")
	m.clQueue = reg.NewGaugeVec("disttrack_cluster_queue_depth",
		"Batches currently queued across the tenant's site channels (at most k x -site-buffer).", "tenant")
	m.tenDropped = reg.NewCounterVec("disttrack_tenant_dropped_total",
		"Arrivals lost to a tenant close: refused mid-send or discarded unbegun by the cluster stop.", "tenant")
	m.tenTies = reg.NewCounterVec("disttrack_tenant_ties_total",
		"Symbolic-perturbation overflows (ε guarantee degrades past 2^24 copies).", "tenant")
	m.tenThrottled = reg.NewCounterVec("disttrack_admission_throttled_total",
		"Records denied by the tenant's QoS admission (rate limit or queue share).", "tenant")
	m.tenQueued = reg.NewGaugeVec("disttrack_admission_queued",
		"Records admitted but not yet applied to the tenant's tracker (what queue_share bounds).", "tenant")

	m.queries = reg.NewCounterVec("disttrack_queries_total",
		"Tenant queries served, by query shape.", "tenant", "query")
	m.cacheHits = reg.NewCounter("disttrack_query_cache_hits_total",
		"Queries answered from the version-keyed snapshot cache.")
	m.cacheMisses = reg.NewCounter("disttrack_query_cache_misses_total",
		"Queries that required a quiescent read of coordinator state.")
	m.etagHits = reg.NewCounter("disttrack_query_cache_etag_hits_total",
		"Conditional queries answered 304 Not Modified from the version ETag.")

	m.bridge = wireobs.New(reg, "disttrack_wire", false)

	reg.NewCounterFunc("disttrack_ingest_accepted_total",
		"Records accepted by the ingest path.", func() int64 { return s.ing.Accepted() })
	reg.NewCounterFunc("disttrack_ingest_rejected_total",
		"Records rejected at validation.", func() int64 { return s.ing.Rejected() })
	reg.NewCounterFunc("disttrack_ingest_throttled_total",
		"Records denied by per-tenant QoS admission, both edges.", func() int64 { return s.ing.Throttled() })
	reg.NewCounterFunc("disttrack_ingest_lost_total",
		"Records accepted but undeliverable (tenant deleted mid-flight).", func() int64 { return s.ing.Lost() })
	m.batchRecords = reg.NewHistogram("disttrack_ingest_batch_records",
		"Records per ingest batch.", obs.SizeBuckets())
	m.ingestSecs = reg.NewHistogram("disttrack_ingest_seconds",
		"Seconds spent validating, logging and delivering one ingest batch to its site channels.", obs.DurationBuckets())
	m.decode = newDecodeCounters(reg)

	// The networked ingest counters read the listener ServeRemote started,
	// and zero before it.
	remoteCount := func(name, help string, read func(*RemoteIngest) int64) {
		reg.NewCounterFunc(name, help, func() int64 {
			if ri := s.remote.Load(); ri != nil {
				return read(ri)
			}
			return 0
		})
	}
	remoteStat := func(name, help string, field func(remote.IngestStats) int64) {
		remoteCount(name, help, func(ri *RemoteIngest) int64 { return field(ri.srv.Stats()) })
	}
	reg.NewGaugeFunc("disttrack_remote_nodes",
		"Live site-node connections on the networked ingest listener.",
		func() float64 {
			if ri := s.remote.Load(); ri != nil {
				return float64(ri.srv.Stats().Nodes)
			}
			return 0
		})
	remoteStat("disttrack_remote_frames_total",
		"Batch frames applied by the networked ingest path.",
		func(st remote.IngestStats) int64 { return st.Frames })
	remoteStat("disttrack_remote_values_total",
		"Values delivered to the tenants' clusters by the networked ingest path.",
		func(st remote.IngestStats) int64 { return st.Values })
	remoteStat("disttrack_remote_duplicates_total",
		"Replayed frames dropped by sequence deduplication.",
		func(st remote.IngestStats) int64 { return st.Duplicates })
	remoteStat("disttrack_remote_rejected_frames_total",
		"Frames refused by ingest validation.",
		func(st remote.IngestStats) int64 { return st.Rejected })
	remoteStat("disttrack_remote_refused_hellos_total",
		"Node handshakes refused by an open per-node reconnect breaker or for a wire-format version mismatch.",
		func(st remote.IngestStats) int64 { return st.Refused })
	remoteStat("disttrack_remote_epoch_refused_hellos_total",
		"Node handshakes refused for carrying a stale membership epoch.",
		func(st remote.IngestStats) int64 { return st.EpochRefused })
	remoteStat("disttrack_remote_flushes_total",
		"Network flush barriers served.",
		func(st remote.IngestStats) int64 { return st.Flushes })
	remoteCount("disttrack_remote_rejected_values_total",
		"Values filtered by per-value validation on the networked ingest path.",
		func(ri *RemoteIngest) int64 { return ri.rejected.Load() })
	remoteCount("disttrack_remote_throttled_values_total",
		"Values dropped by per-tenant QoS admission on the networked ingest path.",
		func(ri *RemoteIngest) int64 { return ri.throttled.Load() })
	remoteStat("disttrack_remote_bytes_in_total",
		"Encoded frame bytes read from site nodes.",
		func(st remote.IngestStats) int64 { return st.BytesIn })
	remoteStat("disttrack_remote_bytes_out_total",
		"Encoded frame bytes written to site nodes.",
		func(st remote.IngestStats) int64 { return st.BytesOut })
	reg.NewGaugeFunc("disttrack_remote_degraded",
		"1 while a known site node is disconnected (queries served from its last state).",
		func() float64 {
			if ri := s.remote.Load(); ri != nil && degraded(ri.srv.NodeStates()) {
				return 1
			}
			return 0
		})
	m.nodeConnected = reg.NewGaugeVec("disttrack_remote_node_connected",
		"1 while the site node's connection is live.", "node")
	m.nodeBreakerState = reg.NewGaugeVec("disttrack_remote_node_breaker_state",
		"Per-node reconnect breaker state: 0 closed, 1 open, 2 half-open.", "node")
	m.nodeBreakerTrips = reg.NewCounterVec("disttrack_remote_node_breaker_trips_total",
		"Times the node's reconnect breaker tripped open.", "node")
	m.remoteBridge = wireobs.New(reg, "disttrack_remote_wire", true)

	m.ckptTotal = reg.NewCounter("disttrack_checkpoint_total",
		"Durable checkpoints completed.")
	m.ckptBytes = reg.NewCounter("disttrack_checkpoint_bytes",
		"Encoded bytes written by durable checkpoints.")
	m.ckptSecs = reg.NewHistogram("disttrack_checkpoint_duration_seconds",
		"Seconds per durable checkpoint, capture through disk write.", obs.DurationBuckets())
	m.ckptErrors = reg.NewCounter("disttrack_checkpoint_errors_total",
		"Durable checkpoint or durable-state cleanup failures.")
	durableCount := func(name, help string, read func(*durability) int64) {
		reg.NewCounterFunc(name, help, func() int64 {
			if s.dur != nil {
				return read(s.dur)
			}
			return 0
		})
	}
	durableCount("disttrack_wal_appended_total",
		"Record batches appended to tenant ingest WALs, deleted tenants' included.",
		func(d *durability) int64 { return d.store.AppendedRecords() })
	durableCount("disttrack_wal_replayed_total",
		"WAL record batches replayed during boot recovery.",
		func(d *durability) int64 { return d.replayedRecords() })
	durableCount("disttrack_wal_fsync_total",
		"fsync calls issued by tenant ingest WALs, deleted tenants' included.",
		func(d *durability) int64 { return d.store.Fsyncs() })
	m.walErrors = reg.NewCounter("disttrack_wal_errors_total",
		"WAL append failures (the batch was still delivered; durability fails open).")

	reg.NewCounterFunc("disttrack_membership_changes_total",
		"Completed live site add/remove reconfigurations (each bumps the membership epoch).",
		s.memChanges.Load)
	reg.NewGaugeFunc("disttrack_membership_epoch",
		"Current membership configuration epoch (bumped on every site add/remove).",
		func() float64 { return float64(s.epoch.Load()) })
	reg.NewGaugeFunc("disttrack_tenants",
		"Live tenants in the registry.",
		func() float64 { return float64(s.reg.Count()) })

	m.httpReqs = reg.NewCounterVec("disttrack_http_requests_total",
		"HTTP API requests, by mux route, method and status code.", "route", "method", "code")
	m.httpSecs = reg.NewHistogramVec("disttrack_http_request_seconds",
		"HTTP API request latency by mux route.", obs.DurationBuckets(), "route")
	m.httpInflight = reg.NewGauge("disttrack_http_inflight_requests",
		"HTTP API requests currently being served.")

	reg.NewGaugeFunc("disttrack_uptime_seconds",
		"Seconds since the server's metrics plane was created.",
		func() float64 { return time.Since(m.start).Seconds() })
	registerBuildInfo(reg)
	reg.OnScrape(s.syncObs)
	return m
}

// registerBuildInfo exports a constant-1 gauge labeled with the binary's
// embedded build metadata (shared by server and site-node registries).
func registerBuildInfo(reg *obs.Registry) {
	version, goVersion := buildMeta()
	reg.NewGaugeVec("disttrack_build_info",
		"Constant 1, labeled with the binary's build metadata.",
		"version", "goversion").With(version, goVersion).Set(1)
}

// buildMeta returns the module version and Go toolchain version from the
// binary's embedded build info ("unknown" when absent).
func buildMeta() (version, goVersion string) {
	version, goVersion = "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
		if bi.GoVersion != "" {
			goVersion = bi.GoVersion
		}
	}
	return version, goVersion
}

// tenantMetrics is one tenant's resolved inline instrumentation: the
// engine's fast-path children (updated by the tracker) and the query
// counters. Children are resolved exactly once here, at tenant creation, so
// no hot path ever touches a family map.
type tenantMetrics struct {
	sm      *serverMetrics
	eng     engine.Metrics
	queries [nShapes]*obs.Counter // by query shape
}

// tenant resolves the per-tenant inline children for name. The arrivals
// the engine applies are the cluster's processed count, exported once by
// bindTenant, so engine.Metrics.Feeds stays unwired.
func (m *serverMetrics) tenant(name string) *tenantMetrics {
	tm := &tenantMetrics{
		sm: m,
		eng: engine.Metrics{
			BatchRuns:        m.engRuns.With(name),
			BatchSplits:      m.engSplits.With(name),
			Escalations:      m.engEsc.With(name),
			SlowPathAcquires: m.engAcquires.With(name),
			SavedAcquires:    m.engSaved.With(name),
			BootHandoffs:     m.engBoot.With(name),
			SlowPathHold:     m.engSlow.With(name),
			QuiesceHold:      m.engQuiesce.With(name),
			CascadeHold:      m.engCascadeHold.With(name),
		},
	}
	for sh, n := range shapeNames {
		tm.queries[sh] = m.queries.With(name, n.label)
	}
	return tm
}

// bindTenant exports t's own counters under its name, replacing the series
// of any earlier tenant of that name. The registry binds a tenant when it
// publishes it and forgets it when it unpublishes it, both under its lock,
// so the series always read the published instance.
func (m *serverMetrics) bindTenant(t *Tenant) {
	name := t.cfg.Name
	m.clProcessed.WithFunc(t.processed, name)
	m.clBatches.WithFunc(func() int64 { return t.stats().Batches }, name)
	m.clQueue.WithFunc(func() float64 { return float64(t.cluster().QueueDepth()) }, name)
	m.tenDropped.WithFunc(t.droppedTotal, name)
	m.tenTies.WithFunc(t.ties.Load, name)
	m.tenThrottled.WithFunc(t.throttled.Load, name)
	m.tenQueued.WithFunc(func() float64 { return float64(t.backlog()) }, name)
}

// forgetTenant removes a deleted tenant's exported series and mirror state,
// so the families do not grow without bound under tenant churn. The bridge
// cleanup runs under the registry's hook lock because the delta map is
// otherwise owned by the scrape hook.
func (m *serverMetrics) forgetTenant(name string) {
	for _, v := range []*obs.CounterVec{
		m.engRuns, m.engSplits, m.engEsc, m.engBoot, m.engAcquires, m.engSaved,
		m.clProcessed, m.clBatches, m.tenDropped, m.tenTies, m.tenThrottled,
	} {
		v.Remove(name)
	}
	m.engSlow.Remove(name)
	m.engQuiesce.Remove(name)
	m.engCascadeHold.Remove(name)
	m.clQueue.Remove(name)
	m.tenQueued.Remove(name)
	for _, n := range shapeNames {
		m.queries.Remove(name, n.label)
	}
	m.reg.WithHookLock(func() { m.bridge.Forget(name) })
}

// syncObs is the server's scrape hook. Each tenant's wire meter is read
// under that tenant's quiescent query lock — the only safe way to read a
// wire.Meter — which briefly stalls the tenant's ingest, same as a stats
// request. The registry serializes hooks, so the bridges' delta state needs
// no locking of its own.
func (s *Server) syncObs() {
	for _, t := range s.reg.all() {
		t.tr.Quiesce(func() { s.met.bridge.Sync(t.cfg.Name, t.meter()) })
	}
	if ri := s.remote.Load(); ri != nil {
		ri.syncObs(s.met)
	}
}

// syncObs exports the per-node series for every node the listener knows
// (the node set is discovered here) and mirrors the transport meter. Runs
// only from the registry's scrape hook.
func (ri *RemoteIngest) syncObs(m *serverMetrics) {
	for node, ns := range ri.srv.NodeStates() {
		connected := int64(0)
		if ns.Connected {
			connected = 1
		}
		m.nodeConnected.With(node).SetInt(connected)
		m.nodeBreakerState.With(node).SetInt(int64(ns.Breaker.State))
		m.nodeBreakerTrips.WithFunc(func() int64 { return ri.srv.NodeStates()[node].Breaker.Trips }, node)
	}
	ri.mu.Lock()
	m.remoteBridge.Sync("ingest", &ri.meter)
	ri.mu.Unlock()
}

// instrumentHTTP wraps the API mux with request counting, latency and
// in-flight instrumentation. The route label is the mux pattern that will
// serve the request (resolved without dispatching), so label cardinality is
// bounded by the route table, not by client-chosen paths.
func (m *serverMetrics) instrumentHTTP(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, route := mux.Handler(r)
		if route == "" {
			route = "none"
		}
		m.httpInflight.Add(1)
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		mux.ServeHTTP(sw, r)
		m.httpInflight.Add(-1)
		m.httpSeconds(route).Observe(time.Since(t0).Seconds())
		m.httpRequests(httpReqKey{route, r.Method, sw.status}).Inc()
	})
}

// httpReqKey names one disttrack_http_requests_total series.
type httpReqKey struct {
	route, method string
	status        int
}

// httpSeconds returns route's latency histogram, resolved on first use.
func (m *serverMetrics) httpSeconds(route string) *obs.Histogram {
	if h, ok := m.httpSecsCache.Load(route); ok {
		return h.(*obs.Histogram)
	}
	h, _ := m.httpSecsCache.LoadOrStore(route, m.httpSecs.With(route))
	return h.(*obs.Histogram)
}

// httpRequests returns k's request counter, resolved on first use.
func (m *serverMetrics) httpRequests(k httpReqKey) *obs.Counter {
	if c, ok := m.httpReqsCache.Load(k); ok {
		return c.(*obs.Counter)
	}
	c, _ := m.httpReqsCache.LoadOrStore(k, m.httpReqs.With(k.route, k.method, strconv.Itoa(k.status)))
	return c.(*obs.Counter)
}

// statusWriter records the status code written by a handler.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}
