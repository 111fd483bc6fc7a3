package runtime

import (
	"context"
	"sync"
	"testing"

	"disttrack/internal/core/hh"
	"disttrack/internal/stream"
)

// Every core tracker satisfies the cluster's Tracker through the shared
// engine.
var _ Tracker = (*hh.Tracker)(nil)

// TestClusterFastPath runs the full concurrent runtime over the site-local
// fast path with concurrent queries, then checks the result against a
// sequential replay of the same per-site streams.
func TestClusterFastPath(t *testing.T) {
	const (
		k       = 4
		perSite = 15000
		batch   = 128
	)
	tr, err := hh.New(hh.Config{K: k, Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(context.Background(), tr, k, 16)
	if err != nil {
		t.Fatal(err)
	}
	streams := make([][]uint64, k)
	g := stream.Zipf(1<<20, int64(k*perSite), 1.2, 5)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		streams[i%k] = append(streams[i%k], x)
	}

	done := make(chan struct{})
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			tr.Quiesce(func() {
				if tr.EstTotal() > tr.TrueTotal() {
					t.Error("EstTotal overtook TrueTotal mid-stream")
				}
			})
		}
	}()

	var wg sync.WaitGroup
	for j := range streams {
		wg.Add(1)
		go func(site int, xs []uint64) {
			defer wg.Done()
			buf := GetBatch(batch)
			for _, x := range xs {
				buf = append(buf, x)
				if len(buf) == batch {
					if err := c.SendBatch(site, buf); err != nil {
						t.Error(err)
						return
					}
					buf = GetBatch(batch)
				}
			}
			if err := c.SendBatch(site, buf); err != nil {
				t.Error(err)
			}
		}(j, streams[j])
	}
	wg.Wait()
	c.Drain()
	close(done)
	qwg.Wait()

	n := int64(k * perSite)
	st := c.Stats()
	if st.Processed != n {
		t.Fatalf("Processed = %d, want %d", st.Processed, n)
	}
	if st.Escalations == 0 {
		t.Fatal("no escalations recorded on the fast path")
	}
	if st.Escalations >= n {
		t.Fatalf("every arrival escalated (%d of %d): fast path not engaged", st.Escalations, n)
	}
	if tr.TrueTotal() != n {
		t.Fatalf("TrueTotal = %d, want %d", tr.TrueTotal(), n)
	}
	for j := 0; j < k; j++ {
		if got := tr.SiteCount(j); got != int64(len(streams[j])) {
			t.Fatalf("site %d count = %d, want %d", j, got, len(streams[j]))
		}
	}

	// Sequential replay of the same per-site streams must land within the
	// same contract; totals agree exactly by conservation.
	seq, err := hh.New(hh.Config{K: k, Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < perSite; i++ {
		for j := 0; j < k; j++ {
			seq.Feed(j, streams[j][i])
		}
	}
	if seq.TrueTotal() != tr.TrueTotal() {
		t.Fatalf("replay TrueTotal = %d, want %d", seq.TrueTotal(), tr.TrueTotal())
	}
}
