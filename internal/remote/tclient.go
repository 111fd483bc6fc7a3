package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"disttrack/internal/fault"
	"disttrack/internal/runtime"
)

// ErrNodeClosed is returned by NodeClient operations after Close.
var ErrNodeClosed = errors.New("remote: node client closed")

// NodeConfig parameterizes a NodeClient.
type NodeConfig struct {
	// Node names this sender; the coordinator keys replay deduplication on
	// it, so it must be stable across restarts of the same logical site
	// node and unique among nodes. Required.
	Node string
	// Window bounds the unacknowledged batch frames in flight; SendBatch
	// blocks while the window is full, propagating coordinator-side
	// backpressure to the producer (default 64).
	Window int
	// RetryMin/RetryMax bound the reconnect backoff (defaults 20ms / 2s):
	// the wait after each failed redial doubles from RetryMin up to
	// RetryMax, ±20% jitter. It is the only thing that paces redials, so
	// RetryMax is a dead coordinator's dial interval.
	RetryMin, RetryMax time.Duration
	// Dial opens the coordinator connection (default: net.Dial "tcp").
	// Tests and fault drills route it through a fault.Injector to simulate
	// partitions and flaky links without touching the kernel.
	Dial func(addr string) (net.Conn, error)
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.Window < 1 {
		c.Window = 64
	}
	if c.RetryMin <= 0 {
		c.RetryMin = 20 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 2 * time.Second
	}
	if c.RetryMax < c.RetryMin {
		c.RetryMax = c.RetryMin
	}
	if c.Dial == nil {
		c.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return c
}

// NodeClient is the site-node side of the multi-tenant transport: it pushes
// per-(tenant,site) batch frames to a coordinator's IngestServer, keeps the
// unacknowledged tail buffered, and transparently reconnects — replaying
// whatever the coordinator has not yet applied (the coordinator's welcome
// carries its high-water sequence, so replays never double count).
type NodeClient struct {
	addr string
	cfg  NodeConfig

	mu      sync.Mutex
	cond    *sync.Cond
	conn    net.Conn // nil while disconnected
	connGen int      // bumped on every established connection
	pending []TFrame // unacked batch frames, ascending seq
	nextSeq uint64
	acked   uint64 // highest frame seq acknowledged (or rejected)
	// out holds encoded frames not yet handed to the kernel on conn, and
	// wrote is the highest batch seq that has been. A frame waits in out only
	// while earlier ones are on the wire unanswered (acked < wrote): their
	// acknowledgements wake readAcks, which sends what collected meanwhile in
	// one write. Nothing waits on a timer, so the bytes on the link are the
	// same whatever the pace — only their grouping into writes differs.
	out      []byte
	wrote    uint64
	flushReq uint64 // last NetFlush seq issued
	flushAck uint64
	closed   bool
	done     chan struct{} // closed by Close: ends a redial wait

	reconnects int64
	resent     int64
	rejected   int64
	lastReject string

	// dialAttempts counts every reconnect dial (successful or not).
	dialAttempts atomic.Int64

	// Transport byte counters (encoded frame sizes, both directions), for
	// the metrics plane. Atomics: writes happen under mu, but reads
	// (readAcks) and scrapes do not take it.
	bytesUp   atomic.Int64
	bytesDown atomic.Int64

	// epoch is the last membership epoch learned from the coordinator
	// (welcome.Site, or the goodbye that refused a stale hello). 0 until the
	// first handshake completes; hellos carry it so a node that missed a
	// membership change is refused and resyncs instead of streaming under
	// stale assumptions.
	epoch atomic.Uint64

	wg sync.WaitGroup
}

// DialNode connects a node client to a coordinator's ingest listener. The
// first connection is synchronous (so configuration errors surface
// immediately); later disconnects are healed in the background.
func DialNode(addr string, cfg NodeConfig) (*NodeClient, error) {
	if cfg.Node == "" {
		return nil, fmt.Errorf("remote: NodeConfig.Node is required")
	}
	c := &NodeClient{addr: addr, cfg: cfg.withDefaults(), done: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	conn, rd, err := c.establish()
	if err != nil {
		return nil, err
	}
	c.wg.Add(1)
	go c.run(conn, rd)
	return c, nil
}

// establish dials, handshakes and resyncs: unacked frames the coordinator
// already applied are retired, the rest are replayed in order.
func (c *NodeClient) establish() (net.Conn, *TFrameReader, error) {
	conn, err := c.cfg.Dial(c.addr)
	if err != nil {
		return nil, nil, fmt.Errorf("remote: dial node: %w", err)
	}
	// The hello's Seq carries the last membership epoch this node saw (0 on
	// a fresh client: accepted unconditionally, the welcome teaches it), its
	// Kind this end's wire-format version.
	hello, err := AppendTFrame(nil, TFrame{Type: TypeNodeHello, Kind: ProtoVersion, Tenant: c.cfg.Node, Seq: c.epoch.Load()})
	if err == nil {
		err = c.write(conn, hello)
	}
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	// The handshake read is bounded too; the ack read loop afterwards may
	// legitimately idle forever, so the deadline is cleared below.
	conn.SetReadDeadline(time.Now().Add(writeTimeout))
	rd := NewTFrameReader(conn)
	welcome, n, err := rd.Read()
	c.bytesDown.Add(int64(n))
	if err == nil {
		err = c.checkWelcome(welcome)
	}
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	// welcome.Site carries the coordinator's membership epoch.
	if welcome.Site != 0 {
		c.epoch.Store(uint64(welcome.Site))
	}
	conn.SetReadDeadline(time.Time{})
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		conn.Close()
		return nil, nil, ErrNodeClosed
	}
	if c.nextSeq == 0 && welcome.Seq > 0 {
		// A fresh process reusing a stable node name (a site killed and
		// restarted, per the docs/operations.md walkthrough): adopt the
		// coordinator's sequence cursor. Numbering from 1 would have the
		// first welcome.Seq frames silently deduplicated as replays of the
		// previous incarnation.
		c.nextSeq = welcome.Seq
		c.acked = welcome.Seq
	}
	c.retireLocked(welcome.Seq)
	// Resync: whatever the previous connection left in out is void; the
	// unacknowledged tail is encoded afresh and replayed in one write.
	c.out, c.wrote = c.out[:0], c.acked
	for _, f := range c.pending {
		c.enqueueLocked(f)
	}
	if err := c.flushLocked(conn); err != nil {
		conn.Close()
		return nil, nil, err
	}
	c.resent += int64(len(c.pending))
	c.conn = conn
	c.connGen++
	c.cond.Broadcast()
	return conn, rd, nil
}

// checkWelcome judges the coordinator's answer to a hello. A refusal is an
// error the redial loop retries: a stale membership epoch is adopted on the
// spot, a version mismatch is recorded for Rejected and the node's stats —
// it persists until one side is upgraded, and the backoff paces the retries
// meanwhile.
func (c *NodeClient) checkWelcome(f TFrame) error {
	switch {
	case f.Type == TypeNodeGoodbye:
		// The coordinator refused our epoch as stale: adopt the current one
		// it named — the redial loop re-handshakes with it immediately.
		if f.Seq != 0 {
			c.epoch.Store(f.Seq)
		}
		return fmt.Errorf("remote: refused for stale membership epoch, adopted %d", f.Seq)
	case f.Type == TypeBatchReject:
		return c.refused(f.Tenant)
	case f.Type != TypeNodeWelcome:
		return fmt.Errorf("remote: unexpected handshake frame type %d", f.Type)
	case f.Kind != ProtoVersion:
		// A coordinator that predates the version gate welcomes anyone.
		return c.refused(fmt.Sprintf(
			"transport version mismatch: coordinator speaks %d, node %d; upgrade both together", f.Kind, ProtoVersion))
	}
	return nil
}

// refused records a handshake refusal and returns it as an error.
func (c *NodeClient) refused(reason string) error {
	c.mu.Lock()
	c.rejected++
	c.lastReject = reason
	c.mu.Unlock()
	return fmt.Errorf("remote: coordinator refused the handshake: %s", reason)
}

// run owns the connection lifecycle: read acknowledgements until the
// connection dies, then redial until a connection is established or the
// client closes. The first redial goes at once; after each failed one the
// loop waits out the jittered exponential backoff, which restarts from
// RetryMin with every established connection.
func (c *NodeClient) run(conn net.Conn, rd *TFrameReader) {
	defer c.wg.Done()
	bo := fault.Backoff{Min: c.cfg.RetryMin, Max: c.cfg.RetryMax}
	for {
		c.readAcks(conn, rd)
		c.mu.Lock()
		if c.conn == conn {
			c.conn = nil
			c.cond.Broadcast()
		}
		closed := c.closed
		c.mu.Unlock()
		conn.Close()
		if closed {
			return
		}
		for attempt := 0; ; attempt++ {
			c.dialAttempts.Add(1)
			var err error
			if conn, rd, err = c.establish(); err == nil {
				break
			}
			if errors.Is(err, ErrNodeClosed) {
				return
			}
			select {
			case <-time.After(bo.Delay(attempt)):
			case <-c.done:
				return
			}
		}
		c.mu.Lock()
		c.reconnects++
		c.mu.Unlock()
	}
}

// readAcks drains coordinator → node frames until the connection errors.
func (c *NodeClient) readAcks(conn net.Conn, rd *TFrameReader) {
	for {
		f, n, err := rd.Read()
		c.bytesDown.Add(int64(n))
		if err != nil {
			return
		}
		c.mu.Lock()
		switch f.Type {
		case TypeBatchAck:
			c.retireLocked(f.Seq)
		case TypeBatchReject:
			c.rejected++
			c.lastReject = f.Tenant
			c.retireLocked(f.Seq)
		case TypeNetFlushAck:
			if f.Seq > c.flushAck {
				c.flushAck = f.Seq
			}
		case TypeNodeGoodbye:
			// A mid-stream goodbye carrying an epoch is the coordinator
			// announcing a membership change before cutting us off; adopt it
			// so the redial handshakes under the new epoch straight away.
			c.mu.Unlock()
			if f.Seq != 0 {
				c.epoch.Store(f.Seq)
			}
			return
		}
		c.cond.Broadcast()
		// About to wait for the coordinator: frames that collected behind
		// the ones just answered go out now, in one write.
		if rd.Buffered() == 0 && c.conn == conn {
			c.flushOrDropLocked()
		}
		c.mu.Unlock()
	}
}

// Epoch returns the membership epoch last learned from the coordinator
// (0 before the first handshake).
func (c *NodeClient) Epoch() uint64 { return c.epoch.Load() }

// retireLocked drops pending frames up to and including seq (acks are
// cumulative) and advances the acknowledgement high-water mark.
func (c *NodeClient) retireLocked(seq uint64) {
	if seq > c.acked && seq <= c.nextSeq {
		c.acked = seq
	}
	i := 0
	for i < len(c.pending) && c.pending[i].Seq <= seq {
		// The client owns a sent batch's values (SendBatch); once the frame
		// is answered nothing reads them again.
		runtime.PutBatch(c.pending[i].Values)
		i++
	}
	if i > 0 {
		n := copy(c.pending, c.pending[i:])
		clear(c.pending[n:])
		c.pending = c.pending[:n]
	}
}

// SendBatch queues one per-(tenant,site) value batch for delivery, blocking
// while the in-flight window is full. The client takes ownership of values.
// A disconnected client still accepts batches until the window fills; they
// are replayed once the connection heals. Delivery is at-least-once on the
// wire and exactly-once after the coordinator's sequence deduplication.
func (c *NodeClient) SendBatch(tenant string, site int, kind byte, values []uint64) error {
	if site < 0 {
		return fmt.Errorf("remote: site %d must be >= 0", site)
	}
	// A frame that cannot be encoded must not enter pending: every resync
	// would fail on it again.
	if len(tenant) > MaxTenantLen || len(values) > MaxBatchLen {
		return fmt.Errorf("remote: batch of %d values for a %d-byte tenant name exceeds the frame limits (%d, %d)",
			len(values), len(tenant), MaxBatchLen, MaxTenantLen)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.closed && len(c.pending) >= c.cfg.Window {
		// The window frees only through acknowledgements, and those only
		// come for frames the coordinator has seen.
		c.flushOrDropLocked()
		c.cond.Wait()
	}
	if c.closed {
		return ErrNodeClosed
	}
	c.nextSeq++
	f := TFrame{Type: TypeBatch, Seq: c.nextSeq, Kind: kind, Site: uint32(site),
		Tenant: tenant, Values: values}
	c.pending = append(c.pending, f)
	if c.conn != nil {
		c.enqueueLocked(f)
		// An idle link (everything written is answered) has nobody coming to
		// send this frame later, and a large buffer gains nothing by waiting.
		// Otherwise it rides with the next write: see out.
		if c.acked >= c.wrote || len(c.out) >= frameFlushBytes {
			c.flushOrDropLocked()
		}
	}
	return nil
}

// Flush is the network ingest fence: it blocks until every batch sent
// before the call has been acknowledged by the coordinator AND the
// coordinator's ingest pipeline has made them visible to queries (the
// server runs its flush barrier before acking). It retries transparently
// across reconnects. The fence covers only frames sent before the call —
// concurrent senders cannot starve it.
func (c *NodeClient) Flush() error { return c.FlushContext(context.Background()) }

// FlushContext is Flush with cancellation: with the coordinator
// unreachable the fence would otherwise wait for a reconnect that may
// never come, so callers serving their own clients (e.g. an HTTP flush
// handler) pass the request context to bound it.
func (c *NodeClient) FlushContext(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	target := c.nextSeq // frames sent before the call
	for {
		for !c.closed && ctx.Err() == nil && (c.acked < target || c.conn == nil) {
			c.flushOrDropLocked() // the fence waits on acks: nothing may sit behind it
			c.cond.Wait()
		}
		if c.closed {
			return ErrNodeClosed
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		gen := c.connGen
		c.flushReq++
		seq := c.flushReq
		c.enqueueLocked(TFrame{Type: TypeNetFlush, Seq: seq})
		if !c.flushOrDropLocked() {
			continue
		}
		for !c.closed && ctx.Err() == nil && c.flushAck < seq && c.connGen == gen && c.conn != nil {
			c.cond.Wait()
		}
		if c.flushAck >= seq {
			return nil
		}
		if c.closed {
			return ErrNodeClosed
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		// The connection died before the ack: resync happened (or is in
		// progress); issue a fresh fence.
	}
}

// frameFlushBytes bounds how much encoded data waits in out for the next
// acknowledgement before SendBatch writes it anyway.
const frameFlushBytes = 32 << 10

// enqueueLocked encodes f into out. Callers have checked the frame limits
// (SendBatch) or send a value-free control frame, so encoding cannot fail.
func (c *NodeClient) enqueueLocked(f TFrame) {
	c.out, _ = AppendTFrame(c.out, f)
}

// flushLocked hands out to the kernel on conn in one write.
func (c *NodeClient) flushLocked(conn net.Conn) error {
	if len(c.out) == 0 {
		return nil
	}
	err := c.write(conn, c.out)
	c.out, c.wrote = c.out[:0], c.nextSeq
	return err
}

// flushOrDropLocked flushes to the live connection, if any, and reports
// whether it is still usable. On a write error the connection is dropped:
// the frames stay pending, the run loop notices the broken connection and
// replays them after the redial.
func (c *NodeClient) flushOrDropLocked() bool {
	if c.conn == nil {
		return false
	}
	if err := c.flushLocked(c.conn); err != nil {
		c.conn.Close()
		c.conn = nil
		c.cond.Broadcast()
		return false
	}
	return true
}

// write writes p under writeTimeout's deadline, so a peer that stops
// reading breaks the connection instead of blocking the sender forever, and
// counts the bytes the socket took.
func (c *NodeClient) write(conn net.Conn, p []byte) error {
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	n, err := conn.Write(p)
	c.bytesUp.Add(int64(n))
	return err
}

// Pending returns how many batch frames await acknowledgement.
func (c *NodeClient) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Window returns the configured in-flight frame bound; Pending()/Window()
// is the transport window occupancy.
func (c *NodeClient) Window() int { return c.cfg.Window }

// Bytes returns the encoded transport bytes written to (up) and read from
// (down) the coordinator, across all connections. Safe for concurrent use.
func (c *NodeClient) Bytes() (up, down int64) {
	return c.bytesUp.Load(), c.bytesDown.Load()
}

// DialAttempts returns how many reconnect dials the client has made
// (successful or not); the initial synchronous DialNode connection is not
// included.
func (c *NodeClient) DialAttempts() int64 { return c.dialAttempts.Load() }

// Connected reports whether the client holds a live connection to the
// coordinator.
func (c *NodeClient) Connected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn != nil
}

// Reconnects returns how many times the client re-established the
// connection after a failure.
func (c *NodeClient) Reconnects() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// Resent returns how many frames were replayed during resyncs.
func (c *NodeClient) Resent() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resent
}

// Rejected returns how many frames and handshakes the coordinator refused,
// and the most recent refusal reason.
func (c *NodeClient) Rejected() (int64, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rejected, c.lastReject
}

// Close sends a best-effort goodbye (when connected and fully acked) and
// tears the client down. Unacknowledged frames are abandoned.
func (c *NodeClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.done)
	if c.conn != nil && len(c.pending) == 0 {
		c.enqueueLocked(TFrame{Type: TypeNodeGoodbye})
		_ = c.flushLocked(c.conn) // best effort: the connection closes next
	}
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
	return nil
}
