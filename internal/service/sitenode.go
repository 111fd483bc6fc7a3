package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"disttrack/internal/obs"
	"disttrack/internal/remote"
	"disttrack/internal/runtime"
)

// SiteNodeConfig parameterizes a SiteNode.
type SiteNodeConfig struct {
	// Node is this site node's stable name; the coordinator keys replay
	// deduplication on it. Required.
	Node string
	// Upstream is the coordinator's remote-ingest address. Required.
	Upstream string
	// Forward tunes local batching (zero values take defaults).
	Forward runtime.ForwarderConfig
	// Window bounds unacknowledged frames in flight to the coordinator
	// (default 64).
	Window int
	// DrainTimeout bounds how long Close waits for the final upstream
	// flush before abandoning unacknowledged batches (default 10s). With
	// the coordinator unreachable the transport would otherwise retry
	// forever and Close would never return.
	DrainTimeout time.Duration

	// BreakerFailures and BreakerOpenTimeout tune the upstream dial
	// circuit breaker; RetryBudgetRatio and RetryBudgetBurst tune the
	// retry budget that paces redials. Zero values take the remote/fault
	// package defaults (see docs/operations.md).
	BreakerFailures    int
	BreakerOpenTimeout time.Duration
	RetryBudgetRatio   float64
	RetryBudgetBurst   float64
	// Dial overrides the upstream dial function (tests inject faults
	// through it; default net.Dial tcp).
	Dial func(addr string) (net.Conn, error)
}

// SiteNode is the site role of a distributed trackd deployment: it accepts
// the same ingest records as a standalone server, accumulates them into
// per-(tenant, site) batches (runtime.Forwarder), and pushes batched delta
// frames upstream to the coordinator over the multi-tenant transport
// (remote.NodeClient). Tenant configuration lives at the coordinator; the
// node validates only what it can know locally, and upstream rejections are
// surfaced through Stats. Backpressure propagates end to end: a stalled
// coordinator fills the transport window, which stalls the forwarder, which
// blocks Ingest.
type SiteNode struct {
	cfg SiteNodeConfig
	cl  *remote.NodeClient
	fw  *runtime.Forwarder
	mux *http.ServeMux
	met *nodeMetrics

	groupers sync.Pool // *grouper[fwdKey], Ingest's per-call scratch

	accepted atomic.Int64
	rejected atomic.Int64
	closing  atomic.Bool
}

// NewSiteNode connects a site node to its coordinator.
func NewSiteNode(cfg SiteNodeConfig) (*SiteNode, error) {
	if cfg.Node == "" {
		return nil, fmt.Errorf("service: SiteNodeConfig.Node is required")
	}
	if cfg.Upstream == "" {
		return nil, fmt.Errorf("service: SiteNodeConfig.Upstream is required")
	}
	cl, err := remote.DialNode(cfg.Upstream, remote.NodeConfig{
		Node:               cfg.Node,
		Window:             cfg.Window,
		BreakerFailures:    cfg.BreakerFailures,
		BreakerOpenTimeout: cfg.BreakerOpenTimeout,
		RetryBudgetRatio:   cfg.RetryBudgetRatio,
		RetryBudgetBurst:   cfg.RetryBudgetBurst,
		Dial:               cfg.Dial,
	})
	if err != nil {
		return nil, err
	}
	n := &SiteNode{cfg: cfg, cl: cl}
	n.groupers.New = func() any { return new(grouper[fwdKey]) }
	n.fw, err = runtime.NewForwarder(func(tenant string, site int, kind byte, values []uint64) error {
		return cl.SendBatch(tenant, site, kind, values)
	}, cfg.Forward)
	if err != nil {
		cl.Close()
		return nil, err
	}
	n.met = newNodeMetrics(n)
	n.mux = http.NewServeMux()
	n.mux.HandleFunc("GET /healthz", n.handleHealth)
	n.mux.HandleFunc("GET /v1/healthz", n.handleHealth)
	n.mux.Handle("GET /metrics", n.met.reg.Handler())
	n.mux.HandleFunc("POST /v1/ingest", n.handleIngest)
	n.mux.HandleFunc("POST /v1/flush", n.handleFlush)
	return n, nil
}

// Metrics returns the node's obs registry (mounted at GET /metrics).
func (n *SiteNode) Metrics() *obs.Registry { return n.met.reg }

// Ingest accepts records for upstream delivery. Validation is local-only
// (the tenant registry lives at the coordinator): empty tenant names and
// negative sites are rejected here; unknown tenants and out-of-range
// values are rejected upstream and counted in Stats.
func (n *SiteNode) Ingest(recs []Record) (int, []RecordError) {
	if n.closing.Load() {
		errs := make([]RecordError, len(recs))
		for i := range recs {
			errs[i] = RecordError{Index: i, Err: "site node shutting down"}
		}
		n.rejected.Add(int64(len(errs)))
		return 0, errs
	}
	// Group per (tenant, site) before handing to the forwarder — one buffer
	// append and lock acquisition per group instead of per record — with the
	// ingester's grouper. The node does not know a tenant's k, so a row is one
	// (tenant, site) pair with a single slot.
	//
	// Records of one tenant usually alternate between a few sites, so the
	// slots of the tenant being looked at are remembered by site: the
	// grouper's index (a hash of the name) is consulted once per site of a
	// run of records naming the same tenant, not once per record.
	g := n.groupers.Get().(*grouper[fwdKey])
	g.begin(len(recs))
	var (
		errs   []RecordError
		tenant string             // whose slots bySite holds; "" (never valid) before the first
		bySite [cachedSites]int32 // slot of (tenant, site), or -1 if not opened in this run
	)
	for i, rec := range recs {
		switch {
		case rec.Tenant == "":
			errs = append(errs, RecordError{Index: i, Err: "tenant name must be non-empty"})
		case rec.Site < 0:
			errs = append(errs, RecordError{Index: i, Err: fmt.Sprintf("site %d must be >= 0", rec.Site)})
		default:
			if rec.Tenant != tenant {
				tenant = rec.Tenant
				for j := range bySite {
					bySite[j] = -1
				}
			}
			var slot int32
			if rec.Site >= cachedSites {
				slot, _ = g.open(fwdKey{rec.Tenant, rec.Site}, 1)
			} else if slot = bySite[rec.Site]; slot < 0 {
				slot, _ = g.open(fwdKey{rec.Tenant, rec.Site}, 1)
				bySite[rec.Site] = slot
			}
			g.add(i, slot)
		}
	}
	accepted := 0
	g.emit(recs, func(key fwdKey, _ int, values []uint64) {
		err := n.fw.AddBatch(key.tenant, key.site, remote.TKindUnknown, values)
		// AddBatch copies from the slice, so it goes straight back to the
		// batch pool either way.
		runtime.PutBatch(values)
		if err != nil {
			// The forwarder is closed or failed: report the group's records.
			for i, rec := range recs {
				if rec.Tenant == key.tenant && rec.Site == key.site {
					errs = append(errs, RecordError{Index: i, Err: err.Error()})
				}
			}
			return
		}
		accepted += len(values)
	})
	n.groupers.Put(g)
	n.accepted.Add(int64(accepted))
	n.rejected.Add(int64(len(errs)))
	return accepted, errs
}

// cachedSites is how many of a tenant's sites Ingest remembers slots for;
// records for higher site ids look their slot up in the grouper every time.
const cachedSites = 16

// fwdKey is one (tenant, site) stream as the node sees it.
type fwdKey struct {
	tenant string
	site   int
}

// Flush is the distributed visibility barrier: local buffers are pushed
// into the transport, and the call returns once the coordinator has
// acknowledged every frame AND run its own pipeline flush — everything this
// node accepted before the call is then visible to coordinator queries.
func (n *SiteNode) Flush() error { return n.FlushContext(context.Background()) }

// FlushContext is Flush with cancellation, for callers that must not wait
// out a coordinator outage (the HTTP flush handler passes its request
// context). A cancelled barrier leaves the data buffered, not lost.
func (n *SiteNode) FlushContext(ctx context.Context) error {
	done := make(chan error, 1)
	go func() {
		if err := n.fw.Flush(); err != nil {
			done <- err
			return
		}
		done <- n.cl.FlushContext(ctx)
	}()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		// The forwarder barrier itself is not cancellable; the goroutine
		// finishes (or fails) once the transport heals or the node closes.
		return ctx.Err()
	}
}

// SiteNodeStats is the node's observability snapshot.
type SiteNodeStats struct {
	Node           string `json:"node"`
	Accepted       int64  `json:"accepted"`        // records accepted locally
	Rejected       int64  `json:"rejected"`        // records refused locally
	Batches        int64  `json:"batches"`         // batches handed to the transport
	Pending        int    `json:"pending"`         // frames awaiting coordinator ack
	Reconnects     int64  `json:"reconnects"`      // healed transport failures
	Resent         int64  `json:"resent"`          // frames replayed during resyncs
	UpstreamReject int64  `json:"upstream_reject"` // frames the coordinator refused
	LastReject     string `json:"last_reject,omitempty"`
	// Fault is the upstream transport's breaker and retry-budget state.
	Fault remote.NodeFaultStats `json:"fault"`
}

// Stats returns the node's counters.
func (n *SiteNode) Stats() SiteNodeStats {
	rej, reason := n.cl.Rejected()
	return SiteNodeStats{
		Node:           n.cfg.Node,
		Accepted:       n.accepted.Load(),
		Rejected:       n.rejected.Load(),
		Batches:        n.fw.Batches(),
		Pending:        n.cl.Pending(),
		Reconnects:     n.cl.Reconnects(),
		Resent:         n.cl.Resent(),
		UpstreamReject: rej,
		LastReject:     reason,
		Fault:          n.cl.FaultStats(),
	}
}

// nodeMetrics is the site node's obs instrumentation. The node has no
// per-arrival hot path worth inline counters — Ingest already batches — so
// everything is mirrored from the transport and forwarder counters by a
// scrape hook, plus gauge funcs for the instantaneous window state.
type nodeMetrics struct {
	reg *obs.Registry

	accepted     *obs.Counter
	rejected     *obs.Counter
	batches      *obs.Counter
	reconnects   *obs.Counter
	resent       *obs.Counter
	upstreamRej  *obs.Counter
	bytesUp      *obs.Counter
	bytesDown    *obs.Counter
	dialAttempts *obs.Counter
	budgetDenied *obs.Counter
	breakerTrips *obs.Counter
	decode       decodeCounters

	last struct {
		accepted, rejected, batches, reconnects, resent, upstreamRej int64
		bytesUp, bytesDown                                           int64
		dialAttempts, budgetDenied, breakerTrips                     int64
	}
}

// newNodeMetrics registers the node's metric catalog and its scrape hook.
func newNodeMetrics(n *SiteNode) *nodeMetrics {
	reg := obs.NewRegistry()
	m := &nodeMetrics{reg: reg}
	start := time.Now()
	m.accepted = reg.NewCounter("disttrack_node_accepted_total",
		"Records accepted locally for upstream delivery.")
	m.rejected = reg.NewCounter("disttrack_node_rejected_total",
		"Records refused by local validation.")
	m.batches = reg.NewCounter("disttrack_node_batches_total",
		"Batches handed to the upstream transport.")
	m.reconnects = reg.NewCounter("disttrack_node_reconnects_total",
		"Healed upstream transport failures.")
	m.resent = reg.NewCounter("disttrack_node_resent_frames_total",
		"Frames replayed during reconnect resyncs.")
	m.upstreamRej = reg.NewCounter("disttrack_node_upstream_rejects_total",
		"Frames the coordinator refused.")
	bytes := reg.NewCounterVec("disttrack_node_bytes_total",
		"Encoded transport bytes by direction (up = toward the coordinator).", "dir")
	m.bytesUp = bytes.With("up")
	m.bytesDown = bytes.With("down")
	reg.NewGaugeFunc("disttrack_node_pending_frames",
		"Batch frames awaiting coordinator acknowledgement.",
		func() float64 { return float64(n.cl.Pending()) })
	reg.NewGaugeFunc("disttrack_node_window_occupancy",
		"Pending frames over the transport window bound (1 = saturated, ingest stalls).",
		func() float64 { return float64(n.cl.Pending()) / float64(n.cl.Window()) })
	m.dialAttempts = reg.NewCounter("disttrack_node_dial_attempts_total",
		"Upstream reconnect dials (successful or not).")
	m.budgetDenied = reg.NewCounter("disttrack_node_retry_budget_denied_total",
		"Redials refused (throttled to the slow cadence) by an exhausted retry budget.")
	m.breakerTrips = reg.NewCounter("disttrack_node_breaker_trips_total",
		"Upstream dial circuit-breaker trips (closed/half-open to open).")
	m.decode = newDecodeCounters(reg)
	reg.NewGaugeFunc("disttrack_node_breaker_state",
		"Upstream dial circuit-breaker state (0 closed, 1 open, 2 half-open).",
		func() float64 { return float64(n.cl.FaultStats().Breaker.State) })
	reg.NewGaugeFunc("disttrack_node_retry_budget_tokens",
		"Current retry-budget balance (redials spend 1; acked work deposits).",
		func() float64 { return n.cl.FaultStats().BudgetTokens })
	reg.NewGaugeFunc("disttrack_node_uptime_seconds",
		"Seconds since the site node was created.",
		func() float64 { return time.Since(start).Seconds() })
	registerBuildInfo(reg)
	reg.OnScrape(n.syncObs)
	return m
}

// syncObs mirrors the node's counters into the metrics plane. Runs only
// from the registry's scrape hook (serialized).
func (n *SiteNode) syncObs() {
	m := n.met
	rej, _ := n.cl.Rejected()
	up, down := n.cl.Bytes()
	addDelta(m.accepted, &m.last.accepted, n.accepted.Load())
	addDelta(m.rejected, &m.last.rejected, n.rejected.Load())
	addDelta(m.batches, &m.last.batches, n.fw.Batches())
	addDelta(m.reconnects, &m.last.reconnects, n.cl.Reconnects())
	addDelta(m.resent, &m.last.resent, n.cl.Resent())
	addDelta(m.upstreamRej, &m.last.upstreamRej, rej)
	addDelta(m.bytesUp, &m.last.bytesUp, up)
	addDelta(m.bytesDown, &m.last.bytesDown, down)
	fs := n.cl.FaultStats()
	addDelta(m.dialAttempts, &m.last.dialAttempts, fs.DialAttempts)
	addDelta(m.budgetDenied, &m.last.budgetDenied, fs.BudgetDenied)
	addDelta(m.breakerTrips, &m.last.breakerTrips, fs.Breaker.Trips)
}

// Handler returns the node's HTTP API: the same /v1/ingest and /v1/flush
// contract as a standalone server, plus /healthz and /metrics.
func (n *SiteNode) Handler() http.Handler { return n.mux }

func (n *SiteNode) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := n.Stats()
	writeJSON(w, http.StatusOK, map[string]any{"ok": !n.closing.Load(), "stats": st})
}

func (n *SiteNode) handleIngest(w http.ResponseWriter, r *http.Request) {
	if n.closing.Load() {
		writeErr(w, http.StatusServiceUnavailable, codeClosing, "site node shutting down")
		return
	}
	body := readIngest(w, r, n.met.decode)
	if body == nil {
		return
	}
	accepted, errs := n.Ingest(body.recs)
	body.release() // Ingest copied the values out and keeps no record
	writeJSON(w, http.StatusOK, ingestResponse{Accepted: accepted, Rejected: errs})
}

func (n *SiteNode) handleFlush(w http.ResponseWriter, r *http.Request) {
	if n.closing.Load() {
		writeErr(w, http.StatusServiceUnavailable, codeClosing, "site node shutting down")
		return
	}
	if err := n.FlushContext(r.Context()); err != nil {
		writeErr(w, http.StatusServiceUnavailable, codeClosing, "flush: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"flushed": true})
}

// Close drains gracefully: stop accepting, push local buffers upstream,
// fence the coordinator, then tear the transport down. The drain is
// bounded by DrainTimeout — with the coordinator unreachable, the
// transport would retry forever; after the timeout the unacknowledged
// tail is abandoned and the error says so.
func (n *SiteNode) Close() error {
	if n.closing.Swap(true) {
		return nil
	}
	timeout := n.cfg.DrainTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	flushErr := n.FlushContext(ctx)
	if errors.Is(flushErr, context.DeadlineExceeded) {
		// Closing the transport unblocks any forwarder dispatch stuck in
		// SendBatch, letting the forwarder close cleanly.
		n.cl.Close()
		n.fw.Close()
		return fmt.Errorf("service: drain timed out after %v; unacknowledged batches abandoned", timeout)
	}
	n.fw.Close()
	if err := n.cl.Close(); err != nil {
		return err
	}
	return flushErr
}
