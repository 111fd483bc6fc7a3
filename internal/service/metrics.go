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
	"disttrack/internal/runtime"
)

// serverMetrics is the server's obs instrumentation: one registry exposed at
// GET /metrics, every family registered up front (so scrapes always see the
// full catalog), and children resolved once per labeled entity. Three update
// disciplines coexist, chosen by path cost:
//
//   - Inline atomics for the engine fast path (engine.Metrics children,
//     resolved per tenant at creation) and the HTTP middleware — lock-free,
//     one atomic per event.
//   - Direct histogram observes on the per-request ingest paths, where one
//     time.Now pair per batch is noise.
//   - Scrape-time mirrors for counters owned elsewhere (cluster stats,
//     ingest totals, wire meters, transport byte counts): a hook runs
//     before each exposition, serialized by the registry, and adds monotone
//     deltas — zero cost off the scrape path.
//
// mu guards the mirror state shared between the scrape hook and tenant
// deletion (bridge delta maps, last-seen totals).
type serverMetrics struct {
	reg   *obs.Registry
	start time.Time

	// Engine fast-path instrumentation, per tenant (see engine.Metrics).
	engFeeds    *obs.CounterVec   // {tenant}
	engRuns     *obs.CounterVec   // {tenant}
	engSplits   *obs.CounterVec   // {tenant}
	engEsc      *obs.CounterVec   // {tenant}
	engAcquires *obs.CounterVec   // {tenant}
	engSaved    *obs.CounterVec   // {tenant}
	engBoot     *obs.CounterVec   // {tenant}
	engSlow     *obs.HistogramVec // {tenant}
	engQuiesce  *obs.HistogramVec // {tenant}

	// Cluster and tenant bookkeeping mirrors, per tenant.
	clProcessed *obs.CounterVec // {tenant}
	clBatches   *obs.CounterVec // {tenant}
	clDropped   *obs.CounterVec // {tenant}
	clQueue     *obs.GaugeVec   // {tenant}
	tenSent     *obs.CounterVec // {tenant}
	tenDropped  *obs.CounterVec // {tenant}
	tenTies     *obs.CounterVec // {tenant}

	// QoS admission mirrors, per tenant.
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
	accepted     *obs.Counter
	rejected     *obs.Counter
	throttled    *obs.Counter
	lost         *obs.Counter
	batchRecords *obs.Histogram
	ingestSecs   *obs.Histogram
	decode       decodeCounters // POST /v1/ingest bodies by decoder

	// Networked ingest mirrors (coord role; zero-valued otherwise).
	remoteNodes        *obs.Gauge
	remoteFrames       *obs.Counter
	remoteValues       *obs.Counter
	remoteDups         *obs.Counter
	remoteRejFrames    *obs.Counter
	remoteRefused      *obs.Counter
	remoteEpochRefused *obs.Counter
	remoteFlushes      *obs.Counter
	remoteRejValues    *obs.Counter
	remoteThrValues    *obs.Counter
	remoteBytesIn      *obs.Counter
	remoteBytesOut     *obs.Counter
	remoteDegraded     *obs.Gauge
	remoteBridge       *wireobs.Bridge

	// Per-site-node fault state (coord role): connection and breaker.
	nodeConnected    *obs.GaugeVec   // {node}
	nodeBreakerState *obs.GaugeVec   // {node}; 0 closed, 1 open, 2 half-open
	nodeBreakerTrips *obs.CounterVec // {node}

	// Durable plane (checkpoints + WAL; zero-valued without a data dir).
	ckptTotal   *obs.Counter
	ckptBytes   *obs.Counter
	ckptSecs    *obs.Histogram
	ckptErrors  *obs.Counter
	walAppended *obs.Counter
	walReplayed *obs.Counter
	walFsync    *obs.Counter
	walErrors   *obs.Counter

	// Membership plane (site add/remove).
	memChanges *obs.Counter

	// HTTP API instrumentation. The children are resolved once per series
	// and cached by instrumentHTTP, so a request touches no family map.
	httpReqs      *obs.CounterVec   // {route, method, code}
	httpSecs      *obs.HistogramVec // {route}
	httpInflight  *obs.Gauge
	httpSecsCache sync.Map // route → *obs.Histogram
	httpReqsCache sync.Map // httpReqKey → *obs.Counter

	// Scrape-hook mirror state (guarded by the registry's hook serialization
	// plus forgetTenant, see syncObs).
	lastAccepted    int64
	lastRejected    int64
	lastThrottled   int64
	lastLost        int64
	lastRemote      remote.IngestStats
	lastRemoteRejVs int64
	lastRemoteThrVs int64
	lastNodeTrips   map[string]int64
	lastWALAppended int64
	lastWALFsync    int64
}

// newServerMetrics registers the server's full metric catalog on a fresh
// registry.
func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{reg: reg, start: time.Now()}

	m.engFeeds = reg.NewCounterVec("disttrack_engine_feeds_total",
		"Fast-path arrivals applied by the tracker engine.", "tenant")
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

	m.clProcessed = reg.NewCounterVec("disttrack_cluster_processed_total",
		"Arrivals fully fed to the tracker by the cluster's site goroutines.", "tenant")
	m.clBatches = reg.NewCounterVec("disttrack_cluster_batches_total",
		"Batch deliveries processed by the cluster.", "tenant")
	m.clDropped = reg.NewCounterVec("disttrack_cluster_dropped_total",
		"Queued arrivals discarded by a cluster stop.", "tenant")
	m.clQueue = reg.NewGaugeVec("disttrack_cluster_queue_depth",
		"Batches currently queued across the tenant's site channels (at most k x -site-buffer).", "tenant")
	m.tenSent = reg.NewCounterVec("disttrack_tenant_sent_total",
		"Arrivals successfully enqueued to the tenant's cluster.", "tenant")
	m.tenDropped = reg.NewCounterVec("disttrack_tenant_dropped_total",
		"Arrivals lost because the tenant closed mid-send.", "tenant")
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

	m.bridge = wireobs.New(reg, "disttrack_wire")

	m.accepted = reg.NewCounter("disttrack_ingest_accepted_total",
		"Records accepted by the ingest path.")
	m.rejected = reg.NewCounter("disttrack_ingest_rejected_total",
		"Records rejected at validation.")
	m.throttled = reg.NewCounter("disttrack_ingest_throttled_total",
		"Records denied by per-tenant QoS admission, both edges.")
	m.lost = reg.NewCounter("disttrack_ingest_lost_total",
		"Records accepted but undeliverable (tenant deleted mid-flight).")
	m.batchRecords = reg.NewHistogram("disttrack_ingest_batch_records",
		"Records per ingest batch.", obs.SizeBuckets())
	m.ingestSecs = reg.NewHistogram("disttrack_ingest_seconds",
		"Seconds spent validating, logging and delivering one ingest batch to its site channels.", obs.DurationBuckets())
	m.decode = newDecodeCounters(reg)

	m.remoteNodes = reg.NewGauge("disttrack_remote_nodes",
		"Live site-node connections on the networked ingest listener.")
	m.remoteFrames = reg.NewCounter("disttrack_remote_frames_total",
		"Batch frames applied by the networked ingest path.")
	m.remoteValues = reg.NewCounter("disttrack_remote_values_total",
		"Values delivered to the tenants' clusters by the networked ingest path.")
	m.remoteDups = reg.NewCounter("disttrack_remote_duplicates_total",
		"Replayed frames dropped by sequence deduplication.")
	m.remoteRejFrames = reg.NewCounter("disttrack_remote_rejected_frames_total",
		"Frames refused by ingest validation.")
	m.remoteRefused = reg.NewCounter("disttrack_remote_refused_hellos_total",
		"Node handshakes refused by an open per-node reconnect breaker or for a wire-format version mismatch.")
	m.remoteEpochRefused = reg.NewCounter("disttrack_remote_epoch_refused_hellos_total",
		"Node handshakes refused for carrying a stale membership epoch.")
	m.remoteFlushes = reg.NewCounter("disttrack_remote_flushes_total",
		"Network flush barriers served.")
	m.remoteRejValues = reg.NewCounter("disttrack_remote_rejected_values_total",
		"Values filtered by per-value validation on the networked ingest path.")
	m.remoteThrValues = reg.NewCounter("disttrack_remote_throttled_values_total",
		"Values dropped by per-tenant QoS admission on the networked ingest path.")
	m.remoteBytesIn = reg.NewCounter("disttrack_remote_bytes_in_total",
		"Encoded frame bytes read from site nodes.")
	m.remoteBytesOut = reg.NewCounter("disttrack_remote_bytes_out_total",
		"Encoded frame bytes written to site nodes.")
	m.remoteDegraded = reg.NewGauge("disttrack_remote_degraded",
		"1 while a known site node is disconnected (queries served from its last state).")
	m.nodeConnected = reg.NewGaugeVec("disttrack_remote_node_connected",
		"1 while the site node's connection is live.", "node")
	m.nodeBreakerState = reg.NewGaugeVec("disttrack_remote_node_breaker_state",
		"Per-node reconnect breaker state: 0 closed, 1 open, 2 half-open.", "node")
	m.nodeBreakerTrips = reg.NewCounterVec("disttrack_remote_node_breaker_trips_total",
		"Times the node's reconnect breaker tripped open.", "node")
	m.lastNodeTrips = make(map[string]int64)
	m.remoteBridge = wireobs.New(reg, "disttrack_remote_wire")

	m.ckptTotal = reg.NewCounter("disttrack_checkpoint_total",
		"Durable checkpoints completed.")
	m.ckptBytes = reg.NewCounter("disttrack_checkpoint_bytes",
		"Encoded bytes written by durable checkpoints.")
	m.ckptSecs = reg.NewHistogram("disttrack_checkpoint_duration_seconds",
		"Seconds per durable checkpoint, capture through disk write.", obs.DurationBuckets())
	m.ckptErrors = reg.NewCounter("disttrack_checkpoint_errors_total",
		"Durable checkpoint or durable-state cleanup failures.")
	m.walAppended = reg.NewCounter("disttrack_wal_appended_total",
		"Record batches appended to tenant ingest WALs.")
	m.walReplayed = reg.NewCounter("disttrack_wal_replayed_total",
		"WAL record batches replayed during boot recovery.")
	m.walFsync = reg.NewCounter("disttrack_wal_fsync_total",
		"fsync calls issued by tenant ingest WALs.")
	m.walErrors = reg.NewCounter("disttrack_wal_errors_total",
		"WAL append failures (the batch was still delivered; durability fails open).")

	m.memChanges = reg.NewCounter("disttrack_membership_changes_total",
		"Completed live site add/remove reconfigurations (each bumps the membership epoch).")

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

// addDelta adds the monotone delta between cur and *last to c and advances
// *last. A source reset (cur below last) re-bases without a negative add, so
// the exported counter stays monotone.
func addDelta(c *obs.Counter, last *int64, cur int64) {
	if cur > *last {
		c.Add(cur - *last)
	}
	*last = cur
}

// tenantMetrics is one tenant's resolved instrumentation: the engine's
// fast-path children (updated inline by the tracker), the cluster mirror
// state, and the query counters. Children are resolved exactly once here, at
// tenant creation, so no hot path ever touches a family map.
type tenantMetrics struct {
	sm  *serverMetrics
	eng engine.Metrics
	cl  runtime.ClusterMetrics

	sent      *obs.Counter
	dropped   *obs.Counter
	ties      *obs.Counter
	throttled *obs.Counter
	queued    *obs.Gauge

	qHeavy    *obs.Counter
	qQuantile *obs.Counter
	qRank     *obs.Counter
	qFreq     *obs.Counter

	lastSent, lastDropped, lastTies, lastThrottled int64
}

// tenant resolves the per-tenant children for name.
func (m *serverMetrics) tenant(name string) *tenantMetrics {
	return &tenantMetrics{
		sm: m,
		eng: engine.Metrics{
			Feeds:            m.engFeeds.With(name),
			BatchRuns:        m.engRuns.With(name),
			BatchSplits:      m.engSplits.With(name),
			Escalations:      m.engEsc.With(name),
			SlowPathAcquires: m.engAcquires.With(name),
			SavedAcquires:    m.engSaved.With(name),
			BootHandoffs:     m.engBoot.With(name),
			SlowPathHold:     m.engSlow.With(name),
			QuiesceHold:      m.engQuiesce.With(name),
		},
		cl: runtime.ClusterMetrics{
			Processed:  m.clProcessed.With(name),
			Batches:    m.clBatches.With(name),
			Dropped:    m.clDropped.With(name),
			QueueDepth: m.clQueue.With(name),
		},
		sent:      m.tenSent.With(name),
		dropped:   m.tenDropped.With(name),
		ties:      m.tenTies.With(name),
		throttled: m.tenThrottled.With(name),
		queued:    m.tenQueued.With(name),
		qHeavy:    m.queries.With(name, "heavy"),
		qQuantile: m.queries.With(name, "quantile"),
		qRank:     m.queries.With(name, "rank"),
		qFreq:     m.queries.With(name, "frequency"),
	}
}

// forgetTenant removes a deleted tenant's exported series and mirror state,
// so the families do not grow without bound under tenant churn. The bridge
// cleanup runs under the registry's hook lock because the delta map is
// otherwise owned by the scrape hook.
func (m *serverMetrics) forgetTenant(name string) {
	for _, v := range []*obs.CounterVec{
		m.engFeeds, m.engRuns, m.engSplits, m.engEsc, m.engBoot,
		m.engAcquires, m.engSaved,
		m.clProcessed, m.clBatches, m.clDropped,
		m.tenSent, m.tenDropped, m.tenTies, m.tenThrottled,
	} {
		v.Remove(name)
	}
	m.engSlow.Remove(name)
	m.engQuiesce.Remove(name)
	m.clQueue.Remove(name)
	m.tenQueued.Remove(name)
	for _, q := range []string{"heavy", "quantile", "rank", "frequency"} {
		m.queries.Remove(name, q)
	}
	m.reg.WithHookLock(func() { m.bridge.Forget(name) })
}

// syncObs is the server's scrape hook: it mirrors every externally-owned
// counter into the metrics plane immediately before an exposition. The
// registry serializes hooks, so the mirror state needs no locking of its
// own. Per-tenant meter reads run under each tenant's quiescent query lock —
// the only safe way to read a wire.Meter — which briefly stalls that
// tenant's ingest, same as a stats request.
func (s *Server) syncObs() {
	m := s.met
	for _, t := range s.reg.all() {
		t.syncObs()
	}
	addDelta(m.accepted, &m.lastAccepted, s.ing.Accepted())
	addDelta(m.rejected, &m.lastRejected, s.ing.Rejected())
	addDelta(m.throttled, &m.lastThrottled, s.ing.Throttled())
	addDelta(m.lost, &m.lastLost, s.ing.Lost())
	if ri := s.remote.Load(); ri != nil {
		ri.syncObs(m)
	}
	if s.dur != nil {
		var appended, fsyncs int64
		for _, t := range s.reg.all() {
			if t.dur != nil {
				st := t.dur.WALStats()
				appended += st.AppendedRecords
				fsyncs += st.Fsyncs
			}
		}
		addDelta(m.walAppended, &m.lastWALAppended, appended)
		addDelta(m.walFsync, &m.lastWALFsync, fsyncs)
	}
}

// syncObs mirrors the tenant's cluster counters, send bookkeeping and
// communication meter. Runs only from the registry's scrape hook.
func (t *Tenant) syncObs() {
	tm := t.tm
	if tm == nil {
		return
	}
	t.cluster().SyncMetrics(&tm.cl)
	addDelta(tm.sent, &tm.lastSent, t.sent.Load())
	addDelta(tm.dropped, &tm.lastDropped, t.dropped.Load())
	addDelta(tm.ties, &tm.lastTies, t.ties.Load())
	addDelta(tm.throttled, &tm.lastThrottled, t.throttled.Load())
	tm.queued.SetInt(t.backlog())
	t.tr.Quiesce(func() {
		tm.sm.bridge.Sync(t.cfg.Name, t.meter())
	})
}

// syncObs mirrors the networked ingest path's transport counters and its
// per-tenant wire meter. Runs only from the registry's scrape hook.
func (ri *RemoteIngest) syncObs(m *serverMetrics) {
	st := ri.srv.Stats()
	m.remoteNodes.SetInt(int64(st.Nodes))
	addDelta(m.remoteFrames, &m.lastRemote.Frames, st.Frames)
	addDelta(m.remoteValues, &m.lastRemote.Values, st.Values)
	addDelta(m.remoteDups, &m.lastRemote.Duplicates, st.Duplicates)
	addDelta(m.remoteRejFrames, &m.lastRemote.Rejected, st.Rejected)
	addDelta(m.remoteRefused, &m.lastRemote.Refused, st.Refused)
	addDelta(m.remoteEpochRefused, &m.lastRemote.EpochRefused, st.EpochRefused)
	addDelta(m.remoteFlushes, &m.lastRemote.Flushes, st.Flushes)
	addDelta(m.remoteBytesIn, &m.lastRemote.BytesIn, st.BytesIn)
	addDelta(m.remoteBytesOut, &m.lastRemote.BytesOut, st.BytesOut)
	degraded := int64(0)
	for node, ns := range ri.srv.NodeStates() {
		if ns.Connected {
			m.nodeConnected.With(node).SetInt(1)
		} else {
			m.nodeConnected.With(node).SetInt(0)
			degraded = 1
		}
		m.nodeBreakerState.With(node).SetInt(int64(ns.Breaker.State))
		last := m.lastNodeTrips[node]
		trips := m.nodeBreakerTrips.With(node)
		addDelta(trips, &last, ns.Breaker.Trips)
		m.lastNodeTrips[node] = last
	}
	m.remoteDegraded.SetInt(degraded)
	ri.mu.Lock()
	addDelta(m.remoteRejValues, &m.lastRemoteRejVs, ri.rejected)
	addDelta(m.remoteThrValues, &m.lastRemoteThrVs, ri.throttled)
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
