// Benchmarks of the trackers' batched ingest path, kept because a gate reads
// each of them (make bench-smoke runs every one once):
//
//   - BenchmarkFeedBatch{HH,Quantile,AllQ} and their …Obs twins:
//     make bench-race-smoke ('FeedBatch') runs them under -race, and the
//     plain/Obs pairs are the ≤5% instrumentation-overhead gate of
//     docs/perf.md "Instrumentation overhead";
//   - BenchmarkFeedBatchBurst: the burst-heavy workload of docs/perf.md
//     "The slow path", reporting its lock traffic, also under -race via
//     'FeedBatch';
//   - BenchmarkClusterSendBatchParallel: make bench-race-smoke
//     ('ClusterSendBatchParallel'), the concurrent runtime over the batched
//     fast path.
//
// The repository's claim-bearing benchmark is bench/ (BENCHMARK.json); the
// experiment tables are cmd/experiments (make experiments-diff).
package disttrack_test

import (
	"context"
	"sync"
	"testing"

	"disttrack/internal/core/allq"
	"disttrack/internal/core/engine"
	"disttrack/internal/core/hh"
	"disttrack/internal/core/quantile"
	"disttrack/internal/obs"
	"disttrack/internal/runtime"
	"disttrack/internal/stream"
)

// benchFeedBatch measures the per-arrival cost of FeedLocalBatch at batch
// 256: one site-lock acquisition and one store bulk-insert per
// escalation-free run.
func benchFeedBatch(b *testing.B, tr runtime.Tracker, xs []uint64, distinct bool) {
	b.Helper()
	const batch = 256
	bufs := make([][]uint64, 8)
	for j := range bufs {
		bufs[j] = make([]uint64, 0, batch)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & 7
		x := xs[i&65535]
		if distinct {
			x += uint64(i) << 24 // keep keys distinct across laps
		}
		bufs[j] = append(bufs[j], x)
		if len(bufs[j]) == batch {
			tr.FeedLocalBatch(j, bufs[j])
			bufs[j] = bufs[j][:0] // the tracker does not retain the batch
		}
	}
}

func BenchmarkFeedBatchHH(b *testing.B) {
	tr, err := hh.New(hh.Config{K: 8, Eps: 0.02})
	if err != nil {
		b.Fatal(err)
	}
	benchFeedBatch(b, tr, preGen(b, false), false)
}

func BenchmarkFeedBatchQuantile(b *testing.B) {
	tr, err := quantile.New(quantile.Config{K: 8, Eps: 0.02, Phi: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	benchFeedBatch(b, tr, preGen(b, true), true)
}

func BenchmarkFeedBatchAllQ(b *testing.B) {
	tr, err := allq.New(allq.Config{K: 8, Eps: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	benchFeedBatch(b, tr, preGen(b, true), true)
}

// fullEngineMetrics resolves every engine.Metrics field on a fresh obs
// registry, exactly as the service layer wires one tenant — the worst case
// for fast-path overhead (every counter attached, histograms armed).
func fullEngineMetrics() *engine.Metrics {
	reg := obs.NewRegistry()
	return &engine.Metrics{
		Feeds:        reg.NewCounter("bench_feeds_total", "bench"),
		BatchRuns:    reg.NewCounter("bench_batch_runs_total", "bench"),
		BatchSplits:  reg.NewCounter("bench_batch_splits_total", "bench"),
		Escalations:  reg.NewCounter("bench_escalations_total", "bench"),
		BootHandoffs: reg.NewCounter("bench_boot_handoffs_total", "bench"),
		SlowPathHold: reg.NewHistogram("bench_slow_path_hold_seconds", "bench", obs.DurationBuckets()),
		QuiesceHold:  reg.NewHistogram("bench_quiesce_hold_seconds", "bench", obs.DurationBuckets()),

		SlowPathAcquires: reg.NewCounter("bench_slow_path_acquires_total", "bench"),
		SavedAcquires:    reg.NewCounter("bench_saved_acquires_total", "bench"),
	}
}

// Instrumented twins of the FeedBatch benches: identical workload with full
// engine.Metrics attached. Compared with the plain benches in one session
// (docs/perf.md "Instrumentation overhead"), the medians must stay within 5%.
func BenchmarkFeedBatchHHObs(b *testing.B) {
	tr, err := hh.New(hh.Config{K: 8, Eps: 0.02})
	if err != nil {
		b.Fatal(err)
	}
	tr.SetMetrics(fullEngineMetrics())
	benchFeedBatch(b, tr, preGen(b, false), false)
}

func BenchmarkFeedBatchQuantileObs(b *testing.B) {
	tr, err := quantile.New(quantile.Config{K: 8, Eps: 0.02, Phi: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	tr.SetMetrics(fullEngineMetrics())
	benchFeedBatch(b, tr, preGen(b, true), true)
}

func BenchmarkFeedBatchAllQObs(b *testing.B) {
	tr, err := allq.New(allq.Config{K: 8, Eps: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	tr.SetMetrics(fullEngineMetrics())
	benchFeedBatch(b, tr, preGen(b, true), true)
}

// BenchmarkFeedBatchBurst is burst-heavy batched ingest in one goroutine: an
// eager reporting threshold (ThresholdDivisor 256 in place of the paper's 3,
// which no service tenant can set) makes a crossing land every few items, so
// every 256-item batch spans dozens of escalations. The counters surface the
// lock traffic directly: every tracking escalation is one hold, so
// acquires/run equals escalations/run less the bootstrap forwards saved/run
// counts (docs/perf.md "The slow path").
func BenchmarkFeedBatchBurst(b *testing.B) {
	xs := preGen(b, false)
	const batch = 256
	var acq, saved, esc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr, err := hh.New(hh.Config{K: 8, Eps: 0.02, ThresholdDivisor: 256})
		if err != nil {
			b.Fatal(err)
		}
		m := fullEngineMetrics()
		tr.SetMetrics(m)
		b.StartTimer()
		for off := 0; off+batch <= len(xs); off += batch {
			run := xs[off : off+batch]
			for j := 0; j < 8; j++ {
				tr.FeedLocalBatch(j, run)
			}
		}
		b.StopTimer()
		acq = float64(m.SlowPathAcquires.Value())
		saved = float64(m.SavedAcquires.Value())
		esc = float64(m.Escalations.Value())
		b.StartTimer()
	}
	b.ReportMetric(acq, "acquires/run")
	b.ReportMetric(saved, "saved/run")
	b.ReportMetric(esc, "escalations/run")
}

const benchSites = 8

// BenchmarkClusterSendBatchParallel runs the full concurrent runtime over
// the fast path: one producer per site batches into runtime.Cluster, whose
// site goroutines ingest through FeedLocalBatch with no cluster lock.
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

// preGen draws 65,536 Zipf items (perturbed to distinct keys for the
// quantile kinds) so the timed loops do no generation work.
func preGen(b *testing.B, perturb bool) []uint64 {
	b.Helper()
	g := stream.Zipf(1<<20, 65536, 1.3, 1)
	if perturb {
		g = stream.Perturb(g)
	}
	xs := make([]uint64, 65536)
	for i := range xs {
		x, ok := g.Next()
		if !ok {
			b.Fatal("generator exhausted")
		}
		xs[i] = x
	}
	return xs
}
