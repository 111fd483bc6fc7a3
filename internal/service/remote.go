package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"disttrack/internal/fault"
	"disttrack/internal/remote"
	"disttrack/internal/runtime"
	"disttrack/internal/wire"
)

// RemoteIngest is the coordinator side of the distributed deployment: a
// remote.IngestServer terminating multi-tenant site-node connections,
// feeding decoded batch frames to the tenants' clusters (IngestGrouped), and
// answering network flush fences with the service-wide visibility barrier. Communication is accounted per tenant on a wire.Meter,
// extending the paper's word-cost bookkeeping across the real network hop.
type RemoteIngest struct {
	s   *Server
	srv *remote.IngestServer

	mu    sync.Mutex
	meter wire.Meter // guarded by mu

	rejected  atomic.Int64 // values filtered by per-value validation
	throttled atomic.Int64 // values dropped by per-tenant QoS admission
}

// ServeRemote starts the networked ingest listener on addr (e.g.
// ":7171"). One listener per server; a second call fails.
func (s *Server) ServeRemote(addr string) (*RemoteIngest, error) {
	ri := &RemoteIngest{s: s}
	// Only the direction totals and the per-tenant attribution are read.
	ri.meter.DisableKindBreakdown()
	// With the durable plane open, seed the listener's dedup table from the
	// recovered cursor state (file ∨ WAL provenance) and advertise the
	// recovered membership epoch: a node replaying a tail the previous
	// coordinator incarnation applied — even one longer than any in-memory
	// window — lands exactly once.
	var cursors map[string]uint64
	if s.dur != nil {
		cursors = s.dur.cursorSnapshot()
	}
	srv, err := remote.NewIngestServer(addr, remote.IngestServerConfig{
		OnBatch: ri.onBatch,
		OnFlush: ri.onFlush,
		Breaker: fault.BreakerConfig{
			FailureThreshold: s.cfg.NodeBreakerFailures,
			OpenTimeout:      s.cfg.NodeBreakerOpenTimeout,
		},
		Epoch:          s.epoch.Load(),
		InitialCursors: cursors,
	})
	if err != nil {
		return nil, err
	}
	ri.srv = srv
	if !s.remote.CompareAndSwap(nil, ri) {
		srv.Close()
		return nil, fmt.Errorf("service: remote ingest already serving")
	}
	return ri, nil
}

// Addr returns the ingest listener's address.
func (ri *RemoteIngest) Addr() string { return ri.srv.Addr() }

// onBatch applies one decoded batch frame through IngestGrouped — the WAL
// append happens inside that call, so the transport's ack follows it. A
// non-nil return refuses the whole frame (the transport sends a reject) —
// except during shutdown, where ErrIngestUnavailable makes the transport
// drop the connection with the frame unconsumed, so the site node keeps it
// buffered and resyncs against the coordinator's replacement. The frame's
// pooled values slice is owned here: on success it flows into the tenant's
// cluster (which recycles it), on failure it goes back to the batch pool.
func (ri *RemoteIngest) onBatch(node string, f remote.TFrame) error {
	words := f.Words()
	if ri.s.closing.Load() {
		runtime.PutBatch(f.Values)
		return remote.ErrIngestUnavailable
	}
	_, rejected, throttled, err := ri.s.ing.IngestGrouped(f.Tenant, int(f.Site), f.Values, node, f.Seq)
	if errors.Is(err, errShuttingDown) {
		return fmt.Errorf("%w: %v", remote.ErrIngestUnavailable, err)
	}
	if err != nil {
		// Attribution only after validation: f.Tenant/f.Site come off the
		// wire, and keying the meter's tenant map or site slice on
		// unvalidated values would let a bad sender grow them without
		// bound. Refused traffic is accounted unattributed.
		ri.mu.Lock()
		ri.meter.Up(-1, "tbatch", words)
		ri.meter.Down(-1, "treject", 1)
		ri.mu.Unlock()
		return err
	}
	// Validated: the tenant exists and f.Site < its K, so both are safe
	// meter keys. A throttled batch is a nil-error outcome on purpose —
	// the frame is acked (the sender must not replay it; that would turn a
	// transient throttle into an amplification loop) and the drop is
	// visible here and in the tenant's throttle counters.
	ri.rejected.Add(int64(rejected))
	ri.throttled.Add(int64(throttled))
	ri.mu.Lock()
	ri.meter.UpTenant(f.Tenant, int(f.Site), "tbatch", words)
	ri.meter.DownTenant(f.Tenant, int(f.Site), "tack", 1)
	ri.mu.Unlock()
	return nil
}

// onFlush backs a node's network fence with the service-wide barrier: every
// batch acked so far is processed by the trackers before the ack goes out.
func (ri *RemoteIngest) onFlush(node string) {
	ri.s.ing.Flush()
	ri.mu.Lock()
	ri.meter.Up(-1, "tflush", 1)
	ri.meter.Down(-1, "tflush", 1)
	ri.mu.Unlock()
}

// TenantCost is one tenant's share of the networked ingest traffic.
type TenantCost struct {
	Tenant string `json:"tenant"`
	Msgs   int64  `json:"msgs"`
	Words  int64  `json:"words"`
}

// RemoteStats is the observability snapshot of the networked ingest path.
type RemoteStats struct {
	remote.IngestStats
	RejectedValues  int64                        `json:"rejected_values"`  // values filtered by validation
	ThrottledValues int64                        `json:"throttled_values"` // values dropped by QoS admission
	Degraded        bool                         `json:"degraded"`         // a known node is disconnected
	NodeStates      map[string]remote.NodeHealth `json:"node_states"`      // per-node connection + breaker
	Tenants         []TenantCost                 `json:"tenants"`          // per-tenant traffic, sorted by name
}

// Stats snapshots the transport counters, per-node health and the
// per-tenant communication accounting.
func (ri *RemoteIngest) Stats() RemoteStats {
	st := RemoteStats{
		IngestStats:     ri.srv.Stats(),
		RejectedValues:  ri.rejected.Load(),
		ThrottledValues: ri.throttled.Load(),
		NodeStates:      ri.srv.NodeStates(),
	}
	st.Degraded = degraded(st.NodeStates)
	ri.mu.Lock()
	for _, name := range ri.meter.Tenants() {
		c := ri.meter.Tenant(name)
		st.Tenants = append(st.Tenants, TenantCost{Tenant: name, Msgs: c.Msgs, Words: c.Words})
	}
	ri.mu.Unlock()
	return st
}

// degraded reports whether a known site node is disconnected.
func degraded(nodes map[string]remote.NodeHealth) bool {
	for _, n := range nodes {
		if !n.Connected {
			return true
		}
	}
	return false
}

// DisconnectNode forcibly drops a site node's connection (it will resync on
// reconnect). It reports whether the node was connected.
func (ri *RemoteIngest) DisconnectNode(node string) bool { return ri.srv.DisconnectNode(node) }

// Close stops the listener and drops every node connection. Sequence
// state is lost with it, which is fine: the service's trackers are gone
// too once the owning Server closes.
func (ri *RemoteIngest) Close() error { return ri.srv.Close() }
