// Burst-heavy batched ingest, the workload slow-path coalescing exists for:
// an eager reporting threshold (ThresholdDivisor 256 in place of the
// paper's 3) makes a crossing land every few items, so every 256-item batch
// spans dozens of escalations. The coalesced/uncoalesced twins are A/B'd in
// the same session (make bench-compare); the counters surface the lock
// traffic directly — uncoalesced pays one lock-set acquisition per
// escalation, coalesced absorbs the burst under one hold.
package disttrack_test

import (
	"testing"

	"disttrack/internal/core/engine"
	"disttrack/internal/core/hh"
)

func benchFeedBatchBurst(b *testing.B, disable bool) {
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
		tr.SetCoalesce(engine.CoalesceConfig{Disable: disable})
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

func BenchmarkFeedBatchBurstCoalesced(b *testing.B)   { benchFeedBatchBurst(b, false) }
func BenchmarkFeedBatchBurstUncoalesced(b *testing.B) { benchFeedBatchBurst(b, true) }
