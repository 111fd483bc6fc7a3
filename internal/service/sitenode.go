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
	// BatchSize is the values a (tenant, site) buffer collects before it is
	// shipped upstream as one frame (default 256, at most
	// remote.MaxBatchLen).
	BatchSize int
	// MaxDelay bounds how long a partial buffer waits to fill before it is
	// shipped anyway (default 50ms).
	MaxDelay time.Duration
	// Window bounds unacknowledged frames in flight to the coordinator
	// (default 64).
	Window int
	// DrainTimeout bounds how long Close waits for the final upstream
	// flush before abandoning unacknowledged batches (default 10s). With
	// the coordinator unreachable the transport would otherwise retry
	// forever and Close would never return.
	DrainTimeout time.Duration
	// Dial overrides the upstream dial function (tests inject faults
	// through it; default net.Dial tcp).
	Dial func(addr string) (net.Conn, error)
}

// SiteNode is the site role of a distributed trackd deployment: it accepts
// the same ingest records as a standalone server, appends their values to
// per-(tenant, site) buffers, and ships each buffer upstream to the
// coordinator as one batch frame over the multi-tenant transport
// (remote.NodeClient). Tenant configuration lives at the coordinator; the
// node validates only what it can know locally, and upstream rejections are
// surfaced through Stats. Backpressure propagates end to end: a stalled
// coordinator fills the transport window, SendBatch blocks under the node's
// lock, and Ingest blocks behind it.
type SiteNode struct {
	cfg SiteNodeConfig
	cl  *remote.NodeClient
	mux *http.ServeMux
	met *nodeMetrics

	// mu guards bufs and shipErr. A buffer is shipped with SendBatch while
	// mu is held, so leaving bufs and entering the transport are one step:
	// no later value of the same (tenant, site), and no Flush, can overtake
	// it.
	mu      sync.Mutex
	bufs    map[bufKey]*siteBuf
	shipErr error // the first failed ship since the last Flush

	stop chan struct{} // closed by Close: ends the delay ticker
	wg   sync.WaitGroup

	accepted atomic.Int64
	rejected atomic.Int64
	batches  atomic.Int64 // frames SendBatch took
	closing  atomic.Bool
}

// bufKey is one (tenant, site) stream as the node sees it.
type bufKey struct {
	tenant string
	site   int
}

// siteBuf collects one (tenant, site) stream's values for its next frame.
type siteBuf struct {
	vals  []uint64 // nil once shipped, until the next value arrives
	since time.Time
}

// NewSiteNode connects a site node to its coordinator.
func NewSiteNode(cfg SiteNodeConfig) (*SiteNode, error) {
	if cfg.Node == "" {
		return nil, fmt.Errorf("service: SiteNodeConfig.Node is required")
	}
	if cfg.Upstream == "" {
		return nil, fmt.Errorf("service: SiteNodeConfig.Upstream is required")
	}
	if cfg.BatchSize > remote.MaxBatchLen {
		return nil, fmt.Errorf("service: SiteNodeConfig.BatchSize %d exceeds the frame limit %d", cfg.BatchSize, remote.MaxBatchLen)
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 256
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 50 * time.Millisecond
	}
	cl, err := remote.DialNode(cfg.Upstream, remote.NodeConfig{
		Node:   cfg.Node,
		Window: cfg.Window,
		Dial:   cfg.Dial,
	})
	if err != nil {
		return nil, err
	}
	n := &SiteNode{cfg: cfg, cl: cl, bufs: make(map[bufKey]*siteBuf), stop: make(chan struct{})}
	n.wg.Add(1)
	go n.tick()
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
// (the tenant registry lives at the coordinator): empty or over-long tenant
// names and negative sites are rejected here; unknown tenants and
// out-of-range values are rejected upstream and counted in Stats.
func (n *SiteNode) Ingest(recs []Record) (int, []RecordError) {
	var errs []RecordError
	accepted := 0
	n.mu.Lock()
	// Close sets closing before its flush takes mu, so a call that gets mu
	// after that flush sees it: nothing is appended once the last ship ran.
	if n.closing.Load() {
		n.mu.Unlock()
		errs = make([]RecordError, len(recs))
		for i := range recs {
			errs[i] = RecordError{Index: i, Err: "site node shutting down"}
		}
		n.rejected.Add(int64(len(errs)))
		return 0, errs
	}
	// Records of one tenant usually alternate between a few sites, so the
	// buffers of the tenant being looked at are remembered by site: the map
	// (a hash of the name) is consulted once per site of a run of records
	// naming the same tenant, not once per record. Only shipAged removes
	// buffers from the map, and it needs mu, so a remembered one stays there
	// for the rest of the call.
	var (
		tenant string                // whose buffers bySite holds; "" (never valid) before the first
		bySite [cachedSites]*siteBuf // buffer of (tenant, site), or nil if not looked up in this run
	)
	for i, rec := range recs {
		switch {
		case rec.Tenant == "":
			errs = append(errs, RecordError{Index: i, Err: "tenant name must be non-empty"})
			continue
		case len(rec.Tenant) > remote.MaxTenantLen:
			errs = append(errs, RecordError{Index: i, Err: fmt.Sprintf("tenant name is %d bytes, over the %d-byte limit", len(rec.Tenant), remote.MaxTenantLen)})
			continue
		case rec.Site < 0:
			errs = append(errs, RecordError{Index: i, Err: fmt.Sprintf("site %d must be >= 0", rec.Site)})
			continue
		}
		if rec.Tenant != tenant {
			tenant = rec.Tenant
			clear(bySite[:])
		}
		var b *siteBuf
		if rec.Site < cachedSites {
			b = bySite[rec.Site]
		}
		if b == nil {
			key := bufKey{rec.Tenant, rec.Site}
			if b = n.bufs[key]; b == nil {
				b = new(siteBuf)
				n.bufs[key] = b
			}
			if rec.Site < cachedSites {
				bySite[rec.Site] = b
			}
		}
		if b.vals == nil {
			b.vals, b.since = runtime.GetBatch(n.cfg.BatchSize), time.Now()
		}
		b.vals = append(b.vals, rec.Value)
		if len(b.vals) == n.cfg.BatchSize {
			n.shipLocked(bufKey{rec.Tenant, rec.Site}, b)
		}
		accepted++
	}
	n.mu.Unlock()
	n.accepted.Add(int64(accepted))
	n.rejected.Add(int64(len(errs)))
	return accepted, errs
}

// cachedSites is how many of a tenant's sites Ingest remembers buffers for;
// records for higher site ids look their buffer up in the map every time.
const cachedSites = 16

// shipLocked hands b's values to the transport as one frame and empties b.
// SendBatch blocks while the window is full: this is the node's only
// backpressure bound, and it holds mu, so Ingest blocks behind it. A failed
// ship is kept for the next Flush to report.
func (n *SiteNode) shipLocked(key bufKey, b *siteBuf) {
	vals := b.vals
	b.vals = nil
	if err := n.cl.SendBatch(key.tenant, key.site, remote.TKindUnknown, vals); err != nil {
		if n.shipErr == nil {
			n.shipErr = fmt.Errorf("service: ship %d values for %s/%d: %w", len(vals), key.tenant, key.site, err)
		}
		runtime.PutBatch(vals) // a refused frame stays the caller's
		return
	}
	n.batches.Add(1)
}

// shipAged ships every buffer whose oldest value arrived before cutoff (zero
// cutoff: all of them) and forgets every buffer it emptied or found empty.
func (n *SiteNode) shipAged(cutoff time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for key, b := range n.bufs {
		if b.vals == nil {
			delete(n.bufs, key)
		} else if cutoff.IsZero() || b.since.Before(cutoff) {
			n.shipLocked(key, b)
			delete(n.bufs, key)
		}
	}
}

// tick ships partial buffers that have waited MaxDelay.
func (n *SiteNode) tick() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.MaxDelay)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case now := <-t.C:
			n.shipAged(now.Add(-n.cfg.MaxDelay))
		}
	}
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
		n.shipAged(time.Time{})
		n.mu.Lock()
		err := n.shipErr
		n.shipErr = nil
		n.mu.Unlock()
		if err != nil {
			done <- err
			return
		}
		done <- n.cl.FlushContext(ctx)
	}()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		// A ship blocked on a full window is not cancellable; the goroutine
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
	Connected      bool   `json:"connected"`     // the upstream connection is live
	DialAttempts   int64  `json:"dial_attempts"` // upstream redials, successful or not
}

// Stats returns the node's counters.
func (n *SiteNode) Stats() SiteNodeStats {
	rej, reason := n.cl.Rejected()
	return SiteNodeStats{
		Node:           n.cfg.Node,
		Accepted:       n.accepted.Load(),
		Rejected:       n.rejected.Load(),
		Batches:        n.batches.Load(),
		Pending:        n.cl.Pending(),
		Reconnects:     n.cl.Reconnects(),
		Resent:         n.cl.Resent(),
		UpstreamReject: rej,
		LastReject:     reason,
		Connected:      n.cl.Connected(),
		DialAttempts:   n.cl.DialAttempts(),
	}
}

// nodeMetrics is the site node's obs instrumentation. The node and its
// transport already count everything it exports, so every series reads
// them at exposition: no copies, no scrape hook.
type nodeMetrics struct {
	reg    *obs.Registry
	decode decodeCounters
}

// newNodeMetrics registers the node's metric catalog.
func newNodeMetrics(n *SiteNode) *nodeMetrics {
	reg := obs.NewRegistry()
	m := &nodeMetrics{reg: reg}
	start := time.Now()
	reg.NewCounterFunc("disttrack_node_accepted_total",
		"Records accepted locally for upstream delivery.", n.accepted.Load)
	reg.NewCounterFunc("disttrack_node_rejected_total",
		"Records refused by local validation.", n.rejected.Load)
	reg.NewCounterFunc("disttrack_node_batches_total",
		"Batches handed to the upstream transport.", n.batches.Load)
	reg.NewCounterFunc("disttrack_node_reconnects_total",
		"Healed upstream transport failures.", n.cl.Reconnects)
	reg.NewCounterFunc("disttrack_node_resent_frames_total",
		"Frames replayed during reconnect resyncs.", n.cl.Resent)
	reg.NewCounterFunc("disttrack_node_upstream_rejects_total",
		"Frames the coordinator refused.",
		func() int64 { rej, _ := n.cl.Rejected(); return rej })
	bytes := reg.NewCounterVec("disttrack_node_bytes_total",
		"Encoded transport bytes by direction (up = toward the coordinator).", "dir")
	bytes.WithFunc(func() int64 { up, _ := n.cl.Bytes(); return up }, "up")
	bytes.WithFunc(func() int64 { _, down := n.cl.Bytes(); return down }, "down")
	reg.NewGaugeFunc("disttrack_node_window_occupancy",
		"Pending frames over the transport window bound (1 = saturated, ingest stalls).",
		func() float64 { return float64(n.cl.Pending()) / float64(n.cl.Window()) })
	reg.NewCounterFunc("disttrack_node_dial_attempts_total",
		"Upstream reconnect dials (successful or not).", n.cl.DialAttempts)
	m.decode = newDecodeCounters(reg)
	reg.NewGaugeFunc("disttrack_node_connected",
		"Upstream connection state (1 connected, 0 redialing).",
		func() float64 {
			if n.cl.Connected() {
				return 1
			}
			return 0
		})
	reg.NewGaugeFunc("disttrack_node_uptime_seconds",
		"Seconds since the site node was created.",
		func() float64 { return time.Since(start).Seconds() })
	registerBuildInfo(reg)
	return m
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
		// Closing the transport unblocks any ship stuck in SendBatch, and
		// the ticker with it.
		n.cl.Close()
		close(n.stop)
		n.wg.Wait()
		return fmt.Errorf("service: drain timed out after %v; unacknowledged batches abandoned", timeout)
	}
	close(n.stop)
	n.wg.Wait()
	if err := n.cl.Close(); err != nil {
		return err
	}
	return flushErr
}
