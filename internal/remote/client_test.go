package remote

import (
	"sync"
	"testing"
)

func TestClientQueryHeavyHitters(t *testing.T) {
	const k, eps = 2, 0.1
	coord, agents := startCluster(t, k, eps)
	defer coord.Close()
	// Item 42 is half the stream.
	for i := 0; i < 4000; i++ {
		_ = agents[i%k].Observe(42)
		_ = agents[i%k].Observe(uint64(1000 + i))
	}
	for _, a := range agents {
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Count signals that straddle a sync round are dropped as epoch-stale, so
	// at end of stream C.m can lag far enough for item 42 to pass φ=0.9; a
	// forced reconciliation round makes it exact (see TestEndToEndHeavyHitters).
	coord.Sync()

	cl, err := DialClient(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rows, total, err := cl.HeavyHitters(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Item != 42 {
		t.Fatalf("rows = %+v, want just item 42", rows)
	}
	if rows[0].Est <= 0 || total <= 0 {
		t.Fatalf("estimates missing: %+v total %d", rows, total)
	}
	// The same connection serves repeated queries.
	rows2, _, err := cl.HeavyHitters(0.3)
	if err != nil || len(rows2) != 1 {
		t.Fatalf("second query: %v %v", rows2, err)
	}
	// A phi no item reaches returns no rows.
	none, _, err := cl.HeavyHitters(0.9)
	if err != nil || len(none) != 0 {
		t.Fatalf("phi=0.9 rows = %v, err %v", none, err)
	}
	for _, a := range agents {
		a.Close()
	}
}

// TestClientConcurrentQueries is the regression test for the documented
// "one query in flight" contract: before the Client grew its mutex, two
// goroutines querying the same connection interleaved their requests and
// read each other's response rows. Run under -race in CI.
func TestClientConcurrentQueries(t *testing.T) {
	const k, eps = 2, 0.1
	coord, agents := startCluster(t, k, eps)
	defer coord.Close()
	for i := 0; i < 4000; i++ {
		_ = agents[i%k].Observe(42)
		_ = agents[i%k].Observe(uint64(1000 + i))
	}
	for _, a := range agents {
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := DialClient(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rows, total, err := cl.HeavyHitters(0.3)
				if err != nil {
					t.Errorf("concurrent query: %v", err)
					return
				}
				if len(rows) != 1 || rows[0].Item != 42 || total <= 0 {
					t.Errorf("concurrent query corrupted: rows=%v total=%d", rows, total)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, a := range agents {
		a.Close()
	}
}

func TestClientQueryInvalidPhi(t *testing.T) {
	coord, agents := startCluster(t, 2, 0.1)
	defer coord.Close()
	for i := 0; i < 100; i++ {
		_ = agents[i%2].Observe(7)
	}
	for _, a := range agents {
		_ = a.Flush()
	}
	cl, err := DialClient(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rows, _, err := cl.HeavyHitters(-3)
	if err != nil || len(rows) != 0 {
		t.Fatalf("invalid phi should yield empty result, got %v, %v", rows, err)
	}
	for _, a := range agents {
		a.Close()
	}
}
