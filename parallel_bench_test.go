// Parallel ingest through the concurrent runtime (docs/perf.md): one
// producer per site batching into runtime.Cluster, whose k site goroutines
// feed the tracker concurrently through FeedLocalBatch.
package disttrack_test

import (
	"context"
	"sync"
	"testing"

	"disttrack/internal/core/hh"
	"disttrack/internal/runtime"
)

const benchSites = 8

// BenchmarkClusterSendBatchParallel runs the full concurrent runtime over
// the fast path: producers batch per site, site goroutines ingest through
// FeedLocalBatch with no cluster lock.
func BenchmarkClusterSendBatchParallel(b *testing.B) {
	tr, err := hh.New(hh.Config{K: benchSites, Eps: 0.02})
	if err != nil {
		b.Fatal(err)
	}
	c, err := runtime.New(context.Background(), tr, benchSites, 64)
	if err != nil {
		b.Fatal(err)
	}
	xs := preGen(b, false)
	const batch = 256
	b.ResetTimer()
	var wg sync.WaitGroup
	for j := 0; j < benchSites; j++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			buf := runtime.GetBatch(batch)
			for i := site; i < b.N; i += benchSites {
				buf = append(buf, xs[i&65535])
				if len(buf) == batch {
					if err := c.SendBatch(site, buf); err != nil {
						b.Error(err)
						return
					}
					buf = runtime.GetBatch(batch)
				}
			}
			if err := c.SendBatch(site, buf); err != nil {
				b.Error(err)
			}
		}(j)
	}
	wg.Wait()
	b.StopTimer()
	c.Drain()
}
