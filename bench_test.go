// Benchmarks regenerating the reproduction experiments ("Experiments" in
// docs/architecture.md): one benchmark per experiment E1–E10 and F1,
// reporting communication in words/run via b.ReportMetric, plus per-item
// feed throughput benches for the three core trackers.
//
// Run with: go test -bench=. -benchmem
package disttrack_test

import (
	"context"
	"testing"

	"disttrack/internal/core/allq"
	"disttrack/internal/core/engine"
	"disttrack/internal/core/hh"
	"disttrack/internal/core/quantile"
	"disttrack/internal/harness"
	"disttrack/internal/lowerbound"
	"disttrack/internal/obs"
	"disttrack/internal/runtime"
	"disttrack/internal/stream"
)

// benchSpec runs one harness spec per iteration and reports the
// communication metrics.
func benchSpec(b *testing.B, s harness.Spec) {
	b.Helper()
	var words, msgs int64
	for i := 0; i < b.N; i++ {
		r, err := harness.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		words, msgs = r.Words, r.Msgs
	}
	b.ReportMetric(float64(words), "words/run")
	b.ReportMetric(float64(msgs), "msgs/run")
}

// E1 — Theorem 2.1: heavy-hitter cost vs n (log-n scaling).
func BenchmarkE1HHCostVsN(b *testing.B) {
	for _, n := range []int64{1 << 14, 1 << 16, 1 << 18} {
		b.Run(byN(n), func(b *testing.B) {
			benchSpec(b, harness.Spec{Algo: harness.HHExact, K: 16, Eps: 0.01, N: n, Seed: 1})
		})
	}
}

// E2 — Theorem 2.1: cost vs k and vs 1/ε (linear scaling in each).
func BenchmarkE2HHCostVsKEps(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		b.Run("k="+itoa(k), func(b *testing.B) {
			benchSpec(b, harness.Spec{Algo: harness.HHExact, K: k, Eps: 0.02, N: 1 << 16, Seed: 2})
		})
	}
	for _, inv := range []int{16, 64, 256} {
		b.Run("invEps="+itoa(inv), func(b *testing.B) {
			benchSpec(b, harness.Spec{Algo: harness.HHExact, K: 8, Eps: 1 / float64(inv), N: 1 << 16, Seed: 2})
		})
	}
}

// E3 — Theorem 2.1 vs the CGMR'05-style baseline (the Θ(1/ε) gap).
func BenchmarkE3HHVsBaselines(b *testing.B) {
	for _, algo := range []harness.Algo{harness.HHExact, harness.Push, harness.Poll, harness.Naive} {
		b.Run(string(algo), func(b *testing.B) {
			benchSpec(b, harness.Spec{Algo: algo, K: 8, Eps: 1.0 / 64, N: 1 << 16, Seed: 3})
		})
	}
}

// E4 — Lemmas 2.2 + 2.3: the lower-bound constructions.
func BenchmarkE4HHLowerBound(b *testing.B) {
	b.Run("nemesis-changes", func(b *testing.B) {
		var changes int
		for i := 0; i < b.N; i++ {
			items, _ := lowerbound.HHNemesis(0.2, 0.05, 1<<16)
			changes = lowerbound.CountHHChanges(items, 0.2, 0.05)
		}
		b.ReportMetric(float64(changes), "changes/run")
	})
	b.Run("adversary-forced", func(b *testing.B) {
		var forced int64
		for i := 0; i < b.N; i++ {
			tr, err := hh.New(hh.Config{K: 16, Eps: 0.05})
			if err != nil {
				b.Fatal(err)
			}
			g := stream.Uniform(1<<20, 1<<15, 1)
			for j := 0; ; j++ {
				x, ok := g.Next()
				if !ok {
					break
				}
				tr.Feed(j%16, x)
			}
			forced = lowerbound.ForceMessages(tr, 999, int64(0.05*float64(tr.TrueTotal())))
		}
		b.ReportMetric(float64(forced), "forced-msgs/run")
	})
}

// E5 — Theorem 3.1: quantile-tracking cost vs n and φ.
func BenchmarkE5QuantileCost(b *testing.B) {
	for _, n := range []int64{1 << 14, 1 << 16, 1 << 18} {
		b.Run(byN(n), func(b *testing.B) {
			benchSpec(b, harness.Spec{Algo: harness.QuantExact, K: 8, Eps: 0.02, Phi: 0.5, N: n,
				Workload: harness.WUniform, Seed: 5})
		})
	}
	b.Run("phi=0.99", func(b *testing.B) {
		benchSpec(b, harness.Spec{Algo: harness.QuantExact, K: 8, Eps: 0.02, Phi: 0.99, N: 1 << 16,
			Workload: harness.WUniform, Seed: 5})
	})
}

// E6 — §3.2: the median nemesis.
func BenchmarkE6MedianLowerBound(b *testing.B) {
	var changes int
	var words int64
	for i := 0; i < b.N; i++ {
		items, _ := lowerbound.MedianNemesis(0.02, 1<<16)
		changes = lowerbound.CountMedianChanges(items)
		tr, err := quantile.New(quantile.Config{K: 8, Eps: 0.02, Phi: 0.5})
		if err != nil {
			b.Fatal(err)
		}
		g := stream.Perturb(stream.FromSlice(items))
		for j := 0; ; j++ {
			x, ok := g.Next()
			if !ok {
				break
			}
			tr.Feed(j%8, x)
		}
		words = tr.Meter().Total().Words
	}
	b.ReportMetric(float64(changes), "changes/run")
	b.ReportMetric(float64(words), "words/run")
}

// E7 — Theorem 4.1: all-quantile cost vs ε.
func BenchmarkE7AllQuantileCost(b *testing.B) {
	for _, inv := range []int{8, 16, 32} {
		b.Run("invEps="+itoa(inv), func(b *testing.B) {
			benchSpec(b, harness.Spec{Algo: harness.AllQ, K: 8, Eps: 1 / float64(inv), N: 1 << 16,
				Workload: harness.WUniform, Seed: 7})
		})
	}
}

// E8 — accuracy verification overhead (run with full oracle checking).
func BenchmarkE8Accuracy(b *testing.B) {
	for _, algo := range []harness.Algo{harness.HHExact, harness.QuantExact, harness.AllQ} {
		b.Run(string(algo), func(b *testing.B) {
			var viol int
			for i := 0; i < b.N; i++ {
				r, err := harness.Run(harness.Spec{Algo: algo, K: 8, Eps: 0.05, N: 1 << 14,
					Seed: 8, CheckEvery: 251})
				if err != nil {
					b.Fatal(err)
				}
				viol = r.Violations
			}
			b.ReportMetric(float64(viol), "violations")
		})
	}
}

// E9 — sketch-mode vs exact-mode.
func BenchmarkE9SketchMode(b *testing.B) {
	for _, algo := range []harness.Algo{harness.HHExact, harness.HHSketch,
		harness.QuantExact, harness.QuantSketch} {
		b.Run(string(algo), func(b *testing.B) {
			benchSpec(b, harness.Spec{Algo: algo, K: 8, Eps: 0.02, N: 1 << 16, Seed: 9})
		})
	}
}

// E10 — §5: randomized sampling vs deterministic.
func BenchmarkE10Sampling(b *testing.B) {
	for _, algo := range []harness.Algo{harness.HHExact, harness.Sampling} {
		for _, inv := range []int{8, 128} {
			b.Run(string(algo)+"/invEps="+itoa(inv), func(b *testing.B) {
				benchSpec(b, harness.Spec{Algo: algo, K: 32, Eps: 1 / float64(inv), N: 1 << 16, Seed: 10})
			})
		}
	}
}

// F1 — Figure 1: tree shape statistics.
func BenchmarkF1TreeShape(b *testing.B) {
	var st allq.Stats
	for i := 0; i < b.N; i++ {
		tr, err := allq.New(allq.Config{K: 8, Eps: 0.02})
		if err != nil {
			b.Fatal(err)
		}
		g := stream.Perturb(stream.Uniform(1<<30, 1<<16, 11))
		for j := 0; ; j++ {
			x, ok := g.Next()
			if !ok {
				break
			}
			tr.Feed(j%8, x)
		}
		st = tr.TreeStats()
	}
	b.ReportMetric(float64(st.Leaves), "leaves")
	b.ReportMetric(float64(st.Height), "height")
	b.ReportMetric(float64(st.HeightCap), "height-cap")
}

// A1 — ablation: the ε·m/3k threshold divisor.
func BenchmarkA1ThresholdDivisor(b *testing.B) {
	for _, div := range []float64{1.5, 3, 12} {
		b.Run("div="+trimF(div), func(b *testing.B) {
			var words int64
			for i := 0; i < b.N; i++ {
				tr, err := hh.New(hh.Config{K: 8, Eps: 0.05, ThresholdDivisor: div})
				if err != nil {
					b.Fatal(err)
				}
				g := stream.Zipf(1<<20, 1<<16, 1.3, 12)
				for j := 0; ; j++ {
					x, ok := g.Next()
					if !ok {
						break
					}
					tr.Feed(j%8, x)
				}
				words = tr.Meter().Total().Words
			}
			b.ReportMetric(float64(words), "words/run")
		})
	}
}

// A4 — ablation: the εm/8k quantile batch divisor.
func BenchmarkA4QuantileBatchDivisor(b *testing.B) {
	for _, div := range []float64{2, 8, 32} {
		b.Run("div="+trimF(div), func(b *testing.B) {
			var words int64
			for i := 0; i < b.N; i++ {
				tr, err := quantile.New(quantile.Config{K: 8, Eps: 0.05, Phi: 0.5, BatchDivisor: div})
				if err != nil {
					b.Fatal(err)
				}
				g := stream.Perturb(stream.Uniform(1<<30, 1<<16, 13))
				for j := 0; ; j++ {
					x, ok := g.Next()
					if !ok {
						break
					}
					tr.Feed(j%8, x)
				}
				words = tr.Meter().Total().Words
			}
			b.ReportMetric(float64(words), "words/run")
		})
	}
}

func trimF(f float64) string {
	if f == float64(int64(f)) {
		return itoa64(int64(f))
	}
	return itoa64(int64(f)) + "." + itoa64(int64(f*10)%10)
}

// Throughput: per-item feed cost of the three trackers.
func BenchmarkFeedHH(b *testing.B) {
	tr, err := hh.New(hh.Config{K: 8, Eps: 0.02})
	if err != nil {
		b.Fatal(err)
	}
	xs := preGen(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Feed(i&7, xs[i&65535])
	}
}

func BenchmarkFeedHHSketch(b *testing.B) {
	tr, err := hh.New(hh.Config{K: 8, Eps: 0.02, Mode: hh.ModeSketch})
	if err != nil {
		b.Fatal(err)
	}
	xs := preGen(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Feed(i&7, xs[i&65535])
	}
}

func BenchmarkFeedQuantile(b *testing.B) {
	tr, err := quantile.New(quantile.Config{K: 8, Eps: 0.02, Phi: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	xs := preGen(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Feed(i&7, xs[i&65535]+uint64(i)<<24) // keep keys distinct across laps
	}
}

func BenchmarkFeedAllQ(b *testing.B) {
	tr, err := allq.New(allq.Config{K: 8, Eps: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	xs := preGen(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Feed(i&7, xs[i&65535]+uint64(i)<<24)
	}
}

// Batched ingest: per-arrival cost of FeedLocalBatch at batch 256 — one
// site-lock acquisition and one store bulk-insert per escalation-free run,
// against the per-item Feed benches above. This is the per-arrival number
// BENCH_PR4.json tracks for the batched fast path.
func benchFeedBatch(b *testing.B, tr interface {
	FeedLocalBatch(site int, xs []uint64) []int
}, xs []uint64, distinct bool) {
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
		CoalescedRuns:    reg.NewCounter("bench_coalesced_runs_total", "bench"),
		SavedAcquires:    reg.NewCounter("bench_saved_acquires_total", "bench"),
	}
}

// Instrumented twins of the FeedBatch benches: identical workload with full
// engine.Metrics attached. The A/B against the plain benches (same session,
// make bench-compare) pins the instrumentation overhead; the acceptance gate
// is within 5%.
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

// Ingest throughput through the concurrent runtime: SendBatch is one channel
// operation and one site-lock acquisition per escalation-free run — the
// internal/service hot path.
func BenchmarkClusterSendBatch(b *testing.B) {
	for _, batch := range []int{64, 256, 1024} {
		b.Run("batch="+itoa(batch), func(b *testing.B) {
			tr, err := hh.New(hh.Config{K: 8, Eps: 0.02})
			if err != nil {
				b.Fatal(err)
			}
			c, err := runtime.New(context.Background(), tr, 8, 64)
			if err != nil {
				b.Fatal(err)
			}
			xs := preGen(b, false)
			bufs := make([][]uint64, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i & 7
				bufs[j] = append(bufs[j], xs[i&65535])
				if len(bufs[j]) == batch {
					if err := c.SendBatch(j, bufs[j]); err != nil {
						b.Fatal(err)
					}
					bufs[j] = make([]uint64, 0, batch) // cluster owns the sent slice
				}
			}
			b.StopTimer()
			for j, buf := range bufs {
				if err := c.SendBatch(j, buf); err != nil {
					b.Fatal(err)
				}
			}
			c.Drain()
		})
	}
}

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

func byN(n int64) string { return "n=" + itoa64(n) }

func itoa(v int) string { return itoa64(int64(v)) }

func itoa64(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
