package remote

import (
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"disttrack/internal/fault"
)

// rawPeer is a hand-driven node connection: the socket to write frames to
// and the one frame reader that may read from it.
type rawPeer struct {
	net.Conn
	rd *TFrameReader
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// maxDials is the most redials the backoff schedule admits within elapsed
// of the first one, counting it: every wait lasts at least its jittered
// minimum (rand 0). A client that waits less than the schedule — or not at
// all — dials more often; a slow machine only dials less.
func maxDials(bo fault.Backoff, elapsed time.Duration) int64 {
	bo.Rand = func() float64 { return 0 }
	n := int64(1)
	for attempt := 0; ; attempt++ {
		if elapsed -= bo.Delay(attempt); elapsed < 0 {
			return n
		}
		n++
	}
}

// TestClientRedialPartitionAndHeal partitions a node client away from the
// coordinator, checks that backoff alone paces its redials — it reports
// itself disconnected and keeps dialing, never faster than the schedule —
// then heals the partition and asserts every batch arrives exactly once.
func TestClientRedialPartitionAndHeal(t *testing.T) {
	const retryMin, retryMax = time.Millisecond, 20 * time.Millisecond
	col := newCollector()
	srv := startIngest(t, IngestServerConfig{OnBatch: col.onBatch})

	inj := &fault.Injector{}
	cl, err := DialNode(srv.Addr(), NodeConfig{
		Node:     "edge-a",
		RetryMin: retryMin,
		RetryMax: retryMax,
		Dial: inj.Dial(func(addr string) (net.Conn, error) {
			return net.Dial("tcp", addr)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var want uint64
	for i := 1; i <= 20; i++ {
		want += uint64(i)
		if err := cl.SendBatch("clicks", 0, TKindHH, []uint64{uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if !cl.Connected() || cl.DialAttempts() != 0 {
		t.Fatalf("healthy client: connected %v, %d redials; want connected, none", cl.Connected(), cl.DialAttempts())
	}

	// Partition: new dials fail, and the established connection is severed
	// from the coordinator side (a partition looks like silence, not a
	// close, to blocked reads — the server kick stands in for the TCP
	// keepalive that would eventually fire).
	start := time.Now()
	inj.Partition()
	srv.DisconnectNode("edge-a")

	waitFor(t, 2*time.Second, "the client to redial", func() bool { return cl.DialAttempts() >= 2 })
	if cl.Connected() {
		t.Fatal("partitioned client reports itself connected")
	}
	time.Sleep(200 * time.Millisecond)
	dials := cl.DialAttempts()
	if limit := maxDials(fault.Backoff{Min: retryMin, Max: retryMax}, time.Since(start)); dials > limit {
		t.Fatalf("%d redials in %v, the backoff schedule allows at most %d", dials, time.Since(start), limit)
	}

	// Disconnected is degraded, not gone: the coordinator still reports the
	// node with its applied state, and still accepts batches client-side.
	if ns := srv.NodeStates()["edge-a"]; ns.Connected || ns.LastSeq == 0 {
		t.Fatalf("degraded node state = %+v, want disconnected with applied seq", ns)
	}
	for i := 21; i <= 30; i++ {
		want += uint64(i)
		if err := cl.SendBatch("clicks", 0, TKindHH, []uint64{uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}

	inj.Heal()
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := col.total(); got != want {
		t.Fatalf("delivered sum after recovery = %d, want %d (exactly once)", got, want)
	}
	if !cl.Connected() || cl.Reconnects() != 1 {
		t.Fatalf("healed client: connected %v, %d reconnects; want connected, 1", cl.Connected(), cl.Reconnects())
	}
}

// TestCloseDuringBackoff closes a client whose redial loop is waiting out a
// backoff far longer than the test: Close must end the wait, not sit it out.
func TestCloseDuringBackoff(t *testing.T) {
	srv := startIngest(t, IngestServerConfig{OnBatch: newCollector().onBatch})
	inj := &fault.Injector{}
	cl, err := DialNode(srv.Addr(), NodeConfig{
		Node:     "edge-c",
		RetryMin: time.Hour,
		RetryMax: time.Hour,
		Dial: inj.Dial(func(addr string) (net.Conn, error) {
			return net.Dial("tcp", addr)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.Partition()
	srv.DisconnectNode("edge-c")
	// The first redial goes at once and fails; the next waits an hour.
	waitFor(t, 2*time.Second, "the first redial", func() bool { return cl.DialAttempts() == 1 })

	closed := make(chan struct{})
	go func() {
		cl.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return while the redial loop waited out its backoff")
	}
	if n := cl.DialAttempts(); n != 1 {
		t.Fatalf("%d redials, want 1: the loop dialed again instead of waiting", n)
	}
}

// TestServerBreakerRefusesFlappingNode drives a node through repeated
// connect-and-die cycles (no frame ever applied) and asserts the
// coordinator's per-node breaker starts refusing its hellos, then admits a
// probe after the open timeout.
func TestServerBreakerRefusesFlappingNode(t *testing.T) {
	col := newCollector()
	srv := startIngest(t, IngestServerConfig{
		OnBatch: col.onBatch,
		Breaker: fault.BreakerConfig{FailureThreshold: 2, OpenTimeout: 50 * time.Millisecond},
	})

	// handshake dials raw, says hello, and reports whether the coordinator
	// welcomed us (an open breaker drops the connection instead).
	handshake := func() (*rawPeer, bool) {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		peer := &rawPeer{Conn: conn, rd: NewTFrameReader(conn)}
		if err := WriteTFrame(conn, TFrame{Type: TypeNodeHello, Kind: ProtoVersion, Tenant: "flappy"}); err != nil {
			conn.Close()
			return nil, false
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		f, _, err := peer.rd.Read()
		if err != nil || f.Type != TypeNodeWelcome {
			conn.Close()
			return nil, false
		}
		return peer, true
	}

	// Two connections that die without progress trip the breaker.
	for i := 0; i < 2; i++ {
		conn, ok := handshake()
		if !ok {
			t.Fatalf("flap %d: healthy coordinator refused the handshake", i)
		}
		conn.Close()
		want := i + 1
		waitFor(t, 2*time.Second, "server to count the dead connection", func() bool {
			ns := srv.NodeStates()["flappy"]
			return ns.Breaker.Failures >= want || ns.Breaker.Trips >= 1
		})
	}
	if ns := srv.NodeStates()["flappy"]; ns.Breaker.State != fault.StateOpen {
		t.Fatalf("breaker after flaps = %+v, want open", ns.Breaker)
	}

	if _, ok := handshake(); ok {
		t.Fatal("open breaker still welcomed the flapping node")
	}
	waitFor(t, 2*time.Second, "refused hello to be counted", func() bool {
		return srv.Stats().Refused >= 1
	})

	// After the open timeout one probe connection is admitted; landing a
	// frame closes the breaker again.
	time.Sleep(60 * time.Millisecond)
	conn, ok := handshake()
	if !ok {
		t.Fatal("breaker refused the probe connection after its open timeout")
	}
	defer conn.Close()
	if err := WriteTFrame(conn, TFrame{Type: TypeBatch, Seq: 1, Kind: TKindHH,
		Tenant: "clicks", Values: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	if f, _, err := conn.rd.Read(); err != nil || f.Type != TypeBatchAck {
		t.Fatalf("probe batch ack = %+v, %v", f, err)
	}
	// Nothing orders the ack's arrival here against the server marking the
	// connection good.
	waitFor(t, 2*time.Second, "probe progress to close the breaker", func() bool {
		return srv.NodeStates()["flappy"].Breaker.State == fault.StateClosed
	})
}

// TestRestartedNodeAdoptsSeqCursor pins the kill-and-restart walkthrough
// (docs/operations.md): a brand-new client process reusing a stable node
// name must adopt the coordinator's sequence cursor from the welcome frame.
// Numbering from 1 again would have its first frames silently deduplicated
// as replays of the previous incarnation.
func TestRestartedNodeAdoptsSeqCursor(t *testing.T) {
	col := newCollector()
	srv := startIngest(t, IngestServerConfig{OnBatch: col.onBatch})

	cl, err := DialNode(srv.Addr(), NodeConfig{Node: "edge-r"})
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for i := 1; i <= 5; i++ {
		want += uint64(i)
		if err := cl.SendBatch("clicks", 0, TKindHH, []uint64{uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh client with no memory of the old sequence numbers,
	// reusing the node name as the operator runbook instructs.
	cl2, err := DialNode(srv.Addr(), NodeConfig{Node: "edge-r"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	want += 100
	if err := cl2.SendBatch("clicks", 0, TKindHH, []uint64{100}); err != nil {
		t.Fatal(err)
	}
	if err := cl2.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := col.total(); got != want {
		t.Fatalf("delivered sum %d, want %d (restarted node's frames deduplicated?)", got, want)
	}
	if d := srv.Stats().Duplicates; d != 0 {
		t.Fatalf("%d duplicates recorded; the restarted node must resume, not replay", d)
	}
}

// countingConn counts the bytes that actually crossed a socket.
type countingConn struct {
	net.Conn
	read, wrote *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wrote.Add(int64(n))
	return n, err
}

// TestLinkByteAccounting checks the transport's byte counters against the
// sockets: over a run with a forced disconnect and a replay, what the clients
// say they wrote is what the server says it read and what the sockets carried,
// and the same downstream. The fault lands while the link is quiet (after a
// Flush) and fails a write before any byte of it is sent, so no byte is in
// flight when the connection dies and the identity is exact.
func TestLinkByteAccounting(t *testing.T) {
	col := newCollector()
	srv := startIngest(t, IngestServerConfig{OnBatch: col.onBatch})

	var sockRead, sockWrote atomic.Int64
	inj := &fault.Injector{}
	dial := inj.Dial(func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return countingConn{conn, &sockRead, &sockWrote}, nil
	})
	clients := make([]*NodeClient, 2)
	for i := range clients {
		cl, err := DialNode(srv.Addr(), NodeConfig{Node: fmt.Sprintf("edge-%d", i), Window: 4,
			RetryMin: time.Millisecond, RetryMax: 5 * time.Millisecond, Dial: dial})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		clients[i] = cl
	}
	var want uint64
	send := func(cl *NodeClient, frames int) {
		for i := 0; i < frames; i++ {
			vals := make([]uint64, 1+i%50)
			for j := range vals {
				vals[j] = uint64(1) << ((i + j) % 64) // every varint length
				want += vals[j]
			}
			if err := cl.SendBatch("clicks", i%3, TKindHH, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	flushAll := func() {
		for _, cl := range clients {
			if err := cl.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(clients[0], 200)
	send(clients[1], 120)
	flushAll()
	// Both links are quiet and both ack readers are parked inside Read, past
	// the injector: the next operation to meet it is client 0's next write.
	inj.FailNext(1)
	send(clients[0], 60)
	flushAll()
	send(clients[1], 30)
	flushAll()

	if got := col.total(); got != want {
		t.Fatalf("delivered sum %d, want %d (exactly once)", got, want)
	}
	if clients[0].Reconnects() != 1 || clients[0].Resent() == 0 {
		t.Fatalf("client 0: %d reconnects, %d frames resent; the run should include one replay",
			clients[0].Reconnects(), clients[0].Resent())
	}
	var up, down int64
	for _, cl := range clients {
		u, d := cl.Bytes()
		up, down = up+u, down+d
	}
	// The server counts a write once the socket has taken it, which can be a
	// moment after the client has read the bytes.
	waitFor(t, 2*time.Second, "the server to count its last write", func() bool { return srv.Stats().BytesOut >= down })
	st := srv.Stats()
	if up != st.BytesIn || up != sockWrote.Load() {
		t.Errorf("upstream bytes: clients wrote %d, server read %d, sockets carried %d", up, st.BytesIn, sockWrote.Load())
	}
	if down != st.BytesOut || down != sockRead.Load() {
		t.Errorf("downstream bytes: clients read %d, server wrote %d, sockets carried %d", down, st.BytesOut, sockRead.Load())
	}
	// The link-efficiency ratio of docs/observability.md: varints make it a
	// function of the values, and it can no longer be 8.
	if perValue := float64(st.BytesIn) / float64(st.Values); perValue >= 8 {
		t.Errorf("%.2f bytes per value on the link", perValue)
	}
}

// TestVersionMismatchRefusedAtHandshake drives both ends against a peer of
// another wire-format version: the coordinator refuses an old node's hello
// with a reason and applies nothing, and a node refused by a coordinator
// surfaces the reason — as DialNode's error on first contact, in Rejected
// when the refusal meets a redial.
func TestVersionMismatchRefusedAtHandshake(t *testing.T) {
	col := newCollector()
	srv := startIngest(t, IngestServerConfig{OnBatch: col.onBatch})

	// An old node: its hello leaves the version byte zero.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteTFrame(conn, TFrame{Type: TypeNodeHello, Tenant: "old-node"}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	refusal, _, err := NewTFrameReader(conn).Read()
	if err != nil || refusal.Type != TypeBatchReject || !strings.Contains(refusal.Tenant, "version") {
		t.Fatalf("old hello answered with %+v, %v; want a reject naming the version", refusal, err)
	}
	waitFor(t, 2*time.Second, "the refused hello to be counted", func() bool { return srv.Stats().Refused == 1 })
	if st := srv.Stats(); st.Nodes != 0 || len(srv.NodeStates()) != 0 {
		t.Fatalf("a refused node was admitted: %+v, %v", st, srv.NodeStates())
	}

	// A coordinator of another version, two ways: one that refuses the hello
	// with a reason, and one old enough to welcome anybody (version byte 0).
	var welcomeAnyone atomic.Bool
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if _, _, err := NewTFrameReader(conn).Read(); err == nil {
				if welcomeAnyone.Load() {
					WriteTFrame(conn, TFrame{Type: TypeNodeWelcome})
				} else {
					WriteTFrame(conn, TFrame{Type: TypeBatchReject, Tenant: "transport version mismatch: test"})
				}
			}
			conn.Close()
		}
	}()
	for _, old := range []bool{false, true} {
		welcomeAnyone.Store(old)
		if _, err := DialNode(ln.Addr().String(), NodeConfig{Node: "edge-v"}); err == nil ||
			!strings.Contains(err.Error(), "version mismatch") {
			t.Fatalf("DialNode against a mismatched coordinator (welcomes anyone: %v): %v", old, err)
		}
	}

	// A running node whose coordinator is replaced by another version: the
	// redials are refused, and the node's stats say why.
	var target atomic.Value
	target.Store(srv.Addr())
	cl, err := DialNode(srv.Addr(), NodeConfig{Node: "edge-v", RetryMin: time.Millisecond, RetryMax: 5 * time.Millisecond,
		Dial: func(string) (net.Conn, error) { return net.Dial("tcp", target.Load().(string)) }})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	target.Store(ln.Addr().String())
	srv.DisconnectNode("edge-v")
	waitFor(t, 2*time.Second, "the refusal to surface in Rejected", func() bool {
		n, reason := cl.Rejected()
		return n >= 1 && strings.Contains(reason, "version mismatch")
	})
}
