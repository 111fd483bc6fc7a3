package remote

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"disttrack/internal/fault"
	"disttrack/internal/runtime"
)

// ErrIngestUnavailable signals from OnBatch that the pipeline cannot take
// the frame right now (e.g. the service is shutting down) but the frame is
// NOT invalid: instead of rejecting — which consumes the frame — the server
// drops the connection with the frame unapplied, so the sender keeps it
// buffered and replays it against whatever serves the address next.
var ErrIngestUnavailable = errors.New("remote: ingest unavailable")

// IngestServerConfig wires an IngestServer into an ingest pipeline.
type IngestServerConfig struct {
	// OnBatch delivers one applied batch frame (f.Type == TypeBatch). A
	// non-nil error refuses the whole frame: the sender receives a
	// TypeBatchReject carrying the error text, and the frame still counts
	// as consumed (it is not redelivered on reconnect) — except
	// ErrIngestUnavailable, which drops the connection with the frame
	// unconsumed so the sender replays it later. OnBatch takes ownership of
	// f.Values in every case (the slice comes from the runtime batch pool;
	// hand it down the pipeline or return it with runtime.PutBatch).
	OnBatch func(node string, f TFrame) error
	// OnFlush runs the pipeline barrier backing a TypeNetFlush: when it
	// returns, everything delivered via OnBatch before the flush frame must
	// be visible to queries. The ack is sent after it returns. Optional.
	OnFlush func(node string)
	// Breaker parameterizes the per-node reconnect circuit breakers. A node
	// whose connections repeatedly die without applying a single frame (a
	// crash loop, a broken build, a mangling middlebox) trips its breaker
	// after FailureThreshold such connections; further hellos are refused
	// until OpenTimeout elapses, then one probe connection is admitted.
	// Zero fields take the fault package defaults (5 failures / 5s).
	Breaker fault.BreakerConfig
	// Epoch is the coordinator's membership configuration epoch, advertised
	// in every welcome (and changeable later via SetEpoch). A hello carrying
	// a DIFFERENT nonzero epoch is refused with a goodbye naming the current
	// one, so a node that missed a membership change cannot keep streaming
	// under stale assumptions — it adopts the new epoch from the goodbye and
	// redials. Zero means epoch 1 (epoch 0 is reserved on the wire for "node
	// does not know yet").
	Epoch uint64
	// InitialCursors seeds the per-node applied-sequence table before the
	// listener accepts anything: the coordinator's durable cursor table,
	// recovered across a restart, so a node replaying a tail the previous
	// incarnation already applied is deduplicated even though this process
	// never saw those frames (docs/durability.md).
	InitialCursors map[string]uint64
}

// IngestStats is a point-in-time snapshot of an IngestServer's counters.
type IngestStats struct {
	Nodes        int    `json:"nodes"`         // live node connections
	Epoch        uint64 `json:"epoch"`         // current membership epoch
	Frames       int64  `json:"frames"`        // batch frames applied
	Values       int64  `json:"values"`        // values delivered to the pipeline
	Duplicates   int64  `json:"duplicates"`    // replayed frames dropped by seq dedupe
	Rejected     int64  `json:"rejected"`      // frames refused by OnBatch
	Refused      int64  `json:"refused"`       // hellos refused by an open node breaker or for another wire-format version
	EpochRefused int64  `json:"epoch_refused"` // hellos refused for a stale membership epoch
	Flushes      int64  `json:"flushes"`       // network flush barriers served
	BytesIn      int64  `json:"bytes_in"`      // encoded frame bytes read from nodes
	BytesOut     int64  `json:"bytes_out"`     // encoded frame bytes written to nodes
}

// IngestServer terminates multi-tenant site-node connections on the
// coordinator: it accepts TFrame batch streams, deduplicates replays by
// per-node sequence number (so a reconnecting node can resend its
// unacknowledged tail without double counting), acknowledges applied
// frames, and serves network flush barriers.
type IngestServer struct {
	cfg IngestServerConfig
	ln  net.Listener

	mu       sync.Mutex
	conns    map[string]net.Conn       // live connection per node name
	lastSeq  map[string]uint64         // highest applied frame seq per node
	locks    map[string]*sync.Mutex    // serializes apply/welcome per node
	breakers map[string]*fault.Breaker // reconnect flap damping per node
	closed   bool

	epoch atomic.Uint64 // current membership epoch (>= 1)

	frames       atomic.Int64
	values       atomic.Int64
	dups         atomic.Int64
	rejects      atomic.Int64
	refused      atomic.Int64
	epochRefused atomic.Int64
	flushes      atomic.Int64
	bytesIn      atomic.Int64
	bytesOut     atomic.Int64

	wg sync.WaitGroup
}

// writeTimeout bounds each socket write on either end of the link (and a
// node's handshake read). On the coordinator it keeps a node that stops
// reading from wedging the serve goroutine, which would otherwise hold the
// per-node apply lock and stall the node's reconnects forever; on a node it
// breaks a wedged connection instead of blocking senders indefinitely.
const writeTimeout = 10 * time.Second

// NewIngestServer starts an ingest listener on addr (e.g. "127.0.0.1:0").
func NewIngestServer(addr string, cfg IngestServerConfig) (*IngestServer, error) {
	if cfg.OnBatch == nil {
		return nil, fmt.Errorf("remote: IngestServerConfig.OnBatch is required")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote: ingest listen: %w", err)
	}
	s := &IngestServer{
		cfg:      cfg,
		ln:       ln,
		conns:    make(map[string]net.Conn),
		lastSeq:  make(map[string]uint64),
		locks:    make(map[string]*sync.Mutex),
		breakers: make(map[string]*fault.Breaker),
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	s.epoch.Store(cfg.Epoch)
	// Seed the dedup table before accept() starts: a node's first replayed
	// frame may arrive the moment the listener is up.
	for node, seq := range cfg.InitialCursors {
		s.lastSeq[node] = seq
	}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// Addr returns the listening address.
func (s *IngestServer) Addr() string { return s.ln.Addr().String() }

func (s *IngestServer) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.serve(conn)
	}
}

// nodeConn is one node connection's buffered I/O: frames are decoded through
// a read buffer, and outgoing frames (acks, mostly) collect in out until the
// serve goroutine — the connection's only writer — hands them to the kernel
// in one write.
type nodeConn struct {
	net.Conn
	rd  *TFrameReader
	out []byte
}

// ackFlushBytes bounds a connection's outgoing buffer: past it the serve loop
// writes even though more input is already buffered.
const ackFlushBytes = 16 << 10

// serve handles one node connection: handshake, then frames until error.
func (s *IngestServer) serve(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	nc := &nodeConn{Conn: conn, rd: NewTFrameReader(conn)}
	hello, n, err := nc.rd.Read()
	// No first frame legitimately carries values (a hello has none, and a
	// batch before the handshake is rejected): recycle unconditionally.
	runtime.PutBatch(hello.Values)
	s.bytesIn.Add(int64(n))
	if err != nil || hello.Type != TypeNodeHello || hello.Tenant == "" {
		return
	}
	node := hello.Tenant
	// Version gate, before anything is decoded on the strength of the peer's
	// format: a hello's Kind names the sender's wire-format version. The
	// refusal is a control frame, which every version lays out alike, so the
	// reason reaches the node whatever it speaks.
	if hello.Kind != ProtoVersion {
		s.refused.Add(1)
		s.queue(nc, TFrame{Type: TypeBatchReject, Tenant: fmt.Sprintf(
			"transport version mismatch: node speaks %d, coordinator %d; upgrade both together",
			hello.Kind, ProtoVersion)})
		_ = s.flush(nc) // the connection is dropped either way
		return
	}
	// Membership epoch gate: a hello's Seq carries the node's last known
	// epoch (0 = fresh node, accepted unconditionally — it learns the epoch
	// from the welcome). A stale nonzero epoch means the node missed a site
	// add/remove; refuse it with a goodbye naming the current epoch so it
	// adopts the new configuration and redials, instead of streaming under
	// assumptions the coordinator no longer holds.
	if e := s.epoch.Load(); hello.Seq != 0 && hello.Seq != e {
		s.epochRefused.Add(1)
		s.queue(nc, TFrame{Type: TypeNodeGoodbye, Seq: e})
		_ = s.flush(nc) // the connection is dropped either way
		return
	}
	br := s.nodeBreaker(node)
	// Flap damping: a node whose connections keep dying without applying a
	// single frame (crash loop, mangled build) has tripped its breaker;
	// refuse the hello outright — dropping the connection leaves the
	// sender's buffered state intact, so it backs off and retries — until
	// the breaker's open timeout admits a probe connection.
	if !br.Allow() {
		s.refused.Add(1)
		return
	}
	// This connection is now the breaker's measurement: the first frame it
	// lands (or flush it serves) marks it good, dying before any progress
	// marks it bad. A clean goodbye is neither.
	progressed := false
	progress := func() {
		if !progressed {
			progressed = true
			br.OnSuccess()
		}
	}
	clean := false
	defer func() {
		if !progressed && !clean {
			br.OnFailure()
		}
	}()
	// The per-node lock serializes this handshake against any apply still
	// in flight on the node's previous connection: the welcome must carry
	// a sequence number that is settled, or a frame that ends up rolled
	// back (ErrIngestUnavailable) could be retired by the reconnecting
	// sender on the strength of a premature welcome.
	lk := s.nodeLock(node)
	lk.Lock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lk.Unlock()
		return
	}
	if old := s.conns[node]; old != nil {
		// The node reconnected before we noticed the old connection die
		// (half-open after a network fault): the new connection wins.
		old.Close()
	}
	s.conns[node] = conn
	last := s.lastSeq[node]
	s.mu.Unlock()
	// The welcome carries the applied cursor (Seq), the membership epoch
	// (Site, u32 on the wire) and this end's format version (Kind): the node
	// retires everything ≤ Seq and adopts the epoch for its next hello.
	s.queue(nc, TFrame{Type: TypeNodeWelcome, Seq: last, Kind: ProtoVersion, Site: uint32(s.epoch.Load())})
	err = s.flush(nc)
	lk.Unlock()
	if err != nil {
		s.removeConn(node, conn)
		return
	}

	for {
		f, n, err := nc.rd.Read()
		s.bytesIn.Add(int64(n))
		if err != nil {
			s.removeConn(node, conn)
			return
		}
		if f.Type != TypeBatch {
			// Only batch frames legitimately carry values, but the decoder
			// accepts a payload on any type — recycle it so a buggy or
			// adversarial sender cannot bypass the pool cycle.
			runtime.PutBatch(f.Values)
		}
		switch f.Type {
		case TypeBatch:
			if !s.applyBatch(node, nc, f, lk) {
				// Frames applied earlier in this burst still get their
				// acks if the socket takes them: fewer replays to dedupe.
				_ = s.flush(nc)
				s.removeConn(node, conn)
				return
			}
			progress()
		case TypeNetFlush:
			if s.cfg.OnFlush != nil {
				s.cfg.OnFlush(node)
			}
			s.flushes.Add(1)
			s.queue(nc, TFrame{Type: TypeNetFlushAck, Seq: f.Seq})
			progress()
		case TypeNodeGoodbye:
			clean = true
			s.removeConn(node, conn)
			return
		}
		// Answers wait for the input already buffered: a burst of frames
		// that arrived in one read is acknowledged with one write. They
		// never wait for the peer — before the loop blocks in Read, and
		// whenever the buffer grows large, they go out.
		if nc.rd.Buffered() == 0 || len(nc.out) >= ackFlushBytes {
			if s.flush(nc) != nil {
				s.removeConn(node, conn)
				return
			}
		}
	}
}

// nodeLock returns the node's apply/welcome serialization lock, creating
// it on first use. Entries persist for the server's lifetime, like the
// node's sequence state.
func (s *IngestServer) nodeLock(node string) *sync.Mutex {
	s.mu.Lock()
	defer s.mu.Unlock()
	lk := s.locks[node]
	if lk == nil {
		lk = &sync.Mutex{}
		s.locks[node] = lk
	}
	return lk
}

// nodeBreaker returns the node's reconnect breaker, creating it on first
// use. Like the lock and sequence state, breakers persist for the server's
// lifetime.
func (s *IngestServer) nodeBreaker(node string) *fault.Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	br := s.breakers[node]
	if br == nil {
		br = fault.NewBreaker(s.cfg.Breaker)
		s.breakers[node] = br
	}
	return br
}

// applyBatch deduplicates and delivers one batch frame and queues its
// acknowledgement — one per frame, only after OnBatch has returned; the serve
// loop sends it. It reports whether the connection is still usable. The node
// lock is held across deliver-then-advance, so the sequence state never
// reflects a frame whose delivery is still undecided — a concurrent
// reconnect handshake waits and welcomes with settled state.
func (s *IngestServer) applyBatch(node string, nc *nodeConn, f TFrame, lk *sync.Mutex) bool {
	lk.Lock()
	defer lk.Unlock()
	s.mu.Lock()
	last := s.lastSeq[node]
	s.mu.Unlock()
	if f.Seq <= last {
		// Replay of an already-applied frame (the ack was lost in a
		// disconnect): acknowledge again, apply nothing. The decoded values
		// go straight back to the batch pool.
		s.dups.Add(1)
		runtime.PutBatch(f.Values)
		s.queue(nc, TFrame{Type: TypeBatchAck, Seq: f.Seq})
		return true
	}
	nvalues := len(f.Values) // OnBatch takes ownership of f.Values
	err := s.cfg.OnBatch(node, f)
	if errors.Is(err, ErrIngestUnavailable) {
		// Nothing recorded: the frame stays buffered at the sender and is
		// replayed against whatever serves the address next.
		return false
	}
	s.mu.Lock()
	if f.Seq > s.lastSeq[node] {
		s.lastSeq[node] = f.Seq
	}
	s.mu.Unlock()
	if err != nil {
		s.rejects.Add(1)
		s.queue(nc, TFrame{Type: TypeBatchReject, Seq: f.Seq, Tenant: err.Error()})
		return true
	}
	s.frames.Add(1)
	s.values.Add(int64(nvalues))
	s.queue(nc, TFrame{Type: TypeBatchAck, Seq: f.Seq})
	return true
}

// queue appends one coordinator → node frame to the connection's outgoing
// buffer. These frames carry no values and at most a reason, which is cut to
// what a frame may hold, so encoding cannot fail.
func (s *IngestServer) queue(nc *nodeConn, f TFrame) {
	if len(f.Tenant) > MaxTenantLen {
		f.Tenant = f.Tenant[:MaxTenantLen]
	}
	nc.out, _ = AppendTFrame(nc.out, f)
}

// flush hands the connection's outgoing buffer to the kernel in one write
// under the write deadline, counting what the socket took. The deadline
// keeps a node that stops reading from wedging the serve goroutine — and,
// during the handshake, the per-node apply lock with it.
func (s *IngestServer) flush(nc *nodeConn) error {
	if len(nc.out) == 0 {
		return nil
	}
	nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	n, err := nc.Write(nc.out)
	s.bytesOut.Add(int64(n))
	nc.out = nc.out[:0]
	return err
}

// removeConn forgets a connection if it is still the registered one for the
// node (a reconnect may already have replaced it).
func (s *IngestServer) removeConn(node string, conn net.Conn) {
	s.mu.Lock()
	if s.conns[node] == conn {
		delete(s.conns, node)
	}
	s.mu.Unlock()
}

// DisconnectNode forcibly closes a node's connection (administrative kick;
// the node's applied-sequence state is retained so a reconnect resyncs
// cleanly). It reports whether the node was connected.
func (s *IngestServer) DisconnectNode(node string) bool {
	s.mu.Lock()
	conn := s.conns[node]
	delete(s.conns, node)
	s.mu.Unlock()
	if conn == nil {
		return false
	}
	conn.Close()
	return true
}

// Nodes returns the names of the currently connected nodes.
func (s *IngestServer) Nodes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.conns))
	for n := range s.conns {
		out = append(out, n)
	}
	return out
}

// NodeHealth describes one known node's connection and breaker state, for
// health endpoints. A node is "known" once it has ever completed a
// handshake; a known-but-disconnected node means the coordinator is serving
// that node's slice of the state from its last applied batch — degraded,
// not down.
type NodeHealth struct {
	Connected bool               `json:"connected"`
	LastSeq   uint64             `json:"last_seq"`
	Breaker   fault.BreakerStats `json:"breaker"`
}

// NodeStates returns the health of every known node (connected or not).
func (s *IngestServer) NodeStates() map[string]NodeHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]NodeHealth, len(s.breakers))
	for n, br := range s.breakers {
		out[n] = NodeHealth{
			Connected: s.conns[n] != nil,
			LastSeq:   s.lastSeq[n],
			Breaker:   br.Stats(),
		}
	}
	return out
}

// Stats returns the server's counters.
func (s *IngestServer) Stats() IngestStats {
	s.mu.Lock()
	nodes := len(s.conns)
	s.mu.Unlock()
	return IngestStats{
		Nodes:        nodes,
		Epoch:        s.epoch.Load(),
		Frames:       s.frames.Load(),
		Values:       s.values.Load(),
		Duplicates:   s.dups.Load(),
		Rejected:     s.rejects.Load(),
		Refused:      s.refused.Load(),
		EpochRefused: s.epochRefused.Load(),
		Flushes:      s.flushes.Load(),
		BytesIn:      s.bytesIn.Load(),
		BytesOut:     s.bytesOut.Load(),
	}
}

// Epoch returns the current membership epoch (always ≥ 1).
func (s *IngestServer) Epoch() uint64 { return s.epoch.Load() }

// SetEpoch advances the advertised membership epoch. Connections already
// streaming are not cut by this alone — pair it with DisconnectAll so every
// node re-handshakes under the new epoch.
func (s *IngestServer) SetEpoch(e uint64) { s.epoch.Store(e) }

// DisconnectAll closes every live node connection and reports how many were
// cut. Per-node sequence state, locks and breakers are retained: the nodes
// replay their unacknowledged tails on reconnect and dedup takes care of the
// rest. Used on a membership change so every node passes the epoch gate anew.
func (s *IngestServer) DisconnectAll() int {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.conns = make(map[string]net.Conn)
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return len(conns)
}

// Cursors snapshots the per-node applied-sequence table, for persisting as
// the coordinator's durable cursor table. Callers must only persist a
// snapshot taken at an applied == durable safe point (after a pipeline flush
// barrier); see durable.CursorTable.
func (s *IngestServer) Cursors() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.lastSeq))
	for n, seq := range s.lastSeq {
		out[n] = seq
	}
	return out
}

// Close stops the listener, drops every connection and waits for the
// per-connection goroutines.
func (s *IngestServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}
