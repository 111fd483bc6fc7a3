package remote

import (
	"net"
	"testing"
	"time"

	"disttrack/internal/fault"
)

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

// TestClientBreakerTripsAndRecovers partitions a node client away from the
// coordinator, watches its dial breaker trip open, heals the partition, and
// asserts the breaker recovers via a half-open probe with every batch
// delivered exactly once.
func TestClientBreakerTripsAndRecovers(t *testing.T) {
	col := newCollector()
	srv := startIngest(t, IngestServerConfig{OnBatch: col.onBatch})

	inj := &fault.Injector{}
	cl, err := DialNode(srv.Addr(), NodeConfig{
		Node:               "edge-a",
		RetryMin:           time.Millisecond,
		RetryMax:           5 * time.Millisecond,
		BreakerFailures:    2,
		BreakerOpenTimeout: 30 * time.Millisecond,
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

	// Partition: new dials fail, and the established connection is severed
	// from the coordinator side (a partition looks like silence, not a
	// close, to blocked reads — the server kick stands in for the TCP
	// keepalive that would eventually fire).
	inj.Partition()
	srv.DisconnectNode("edge-a")

	waitFor(t, 2*time.Second, "client breaker to trip open", func() bool {
		st := cl.FaultStats()
		return st.Breaker.Trips >= 1 && st.Breaker.State == fault.StateOpen
	})

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
	st := cl.FaultStats()
	if st.Breaker.State != fault.StateClosed || st.Breaker.Probes < 1 {
		t.Fatalf("breaker after recovery = %+v, want closed with >= 1 probe", st.Breaker)
	}
	if st.DialAttempts < 3 {
		t.Fatalf("dial attempts = %d, want >= 3 (failures + probe)", st.DialAttempts)
	}
}

// TestClientRetryBudget exhausts a tiny retry budget during an outage and
// asserts retries are denied (throttled to RetryMax cadence) yet recovery
// still completes once the link heals.
func TestClientRetryBudget(t *testing.T) {
	col := newCollector()
	srv := startIngest(t, IngestServerConfig{OnBatch: col.onBatch})

	inj := &fault.Injector{}
	cl, err := DialNode(srv.Addr(), NodeConfig{
		Node:     "edge-b",
		RetryMin: time.Millisecond,
		RetryMax: 10 * time.Millisecond,
		// Breaker effectively disabled so the budget is what paces retries.
		BreakerFailures:  1 << 20,
		RetryBudgetRatio: 1e-9,
		RetryBudgetBurst: 1,
		Dial: inj.Dial(func(addr string) (net.Conn, error) {
			return net.Dial("tcp", addr)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.SendBatch("clicks", 0, TKindHH, []uint64{7}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}

	inj.Partition()
	srv.DisconnectNode("edge-b")
	waitFor(t, 2*time.Second, "retry budget to deny", func() bool {
		return cl.FaultStats().BudgetDenied >= 2
	})

	inj.Heal()
	if err := cl.SendBatch("clicks", 0, TKindHH, []uint64{8}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := col.total(); got != 15 {
		t.Fatalf("delivered sum = %d, want 15", got)
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
	handshake := func() (net.Conn, bool) {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteTFrame(conn, TFrame{Type: TypeNodeHello, Tenant: "flappy"}); err != nil {
			conn.Close()
			return nil, false
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		f, err := ReadTFrame(conn)
		if err != nil || f.Type != TypeNodeWelcome {
			conn.Close()
			return nil, false
		}
		return conn, true
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
	if f, err := ReadTFrame(conn); err != nil || f.Type != TypeBatchAck {
		t.Fatalf("probe batch ack = %+v, %v", f, err)
	}
	// The server writes the ack inside applyBatch and marks the connection
	// good just after, so the ack can arrive a moment before the breaker
	// closes.
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
