package service

import (
	"testing"

	"disttrack/internal/stream"
)

// BenchmarkServiceMacro is the fixed-rng macro benchmark: one full service
// pass per iteration — a million-record skewed stream ingested in
// wire-sized batches, a flush, then the kind's query spread —
// for each of the three tracker kinds. Everything above HTTP decoding runs:
// grouping, per-tenant admission, the engine's batched fast path
// and (coalesced) slow path, and the version-keyed query caches. The rng
// seed is pinned so runs are comparable within a session (compare medians
// over -count runs); ns/item is the headline metric.
func BenchmarkServiceMacro(b *testing.B) {
	const (
		sites    = 8
		batchLen = 512
		items    = 1 << 20
	)
	kinds := []struct {
		name  string
		tc    TenantConfig
		query func(b *testing.B, t *Tenant)
	}{
		{"hh", TenantConfig{Name: "m", Kind: KindHH, K: sites, Eps: 0.02},
			func(b *testing.B, t *Tenant) {
				if _, err := t.HeavyHitters(0.05); err != nil {
					b.Fatal(err)
				}
				if _, err := t.Frequency(1); err != nil {
					b.Fatal(err)
				}
			}},
		{"quantile", TenantConfig{Name: "m", Kind: KindQuantile, K: sites, Eps: 0.05, Phis: []float64{0.5, 0.99}},
			func(b *testing.B, t *Tenant) {
				for _, phi := range []float64{0.5, 0.99} {
					if _, err := t.Quantile(phi); err != nil {
						b.Fatal(err)
					}
				}
			}},
		{"allq", TenantConfig{Name: "m", Kind: KindAllQ, K: sites, Eps: 0.05},
			func(b *testing.B, t *Tenant) {
				if _, err := t.Quantile(0.5); err != nil {
					b.Fatal(err)
				}
				if _, _, err := t.Rank(1 << 16); err != nil {
					b.Fatal(err)
				}
			}},
	}
	for _, kind := range kinds {
		b.Run(kind.name, func(b *testing.B) {
			// One fixed-seed stream, pre-cut into wire-shaped batches.
			g := stream.Zipf(1<<20, items, 1.2, 7)
			batches := make([][]Record, 0, items/batchLen)
			for i := 0; i < items; i += batchLen {
				recs := make([]Record, batchLen)
				for j := range recs {
					v, ok := g.Next()
					if !ok {
						b.Fatal("generator exhausted")
					}
					recs[j] = Record{Tenant: "m", Site: (i + j) % sites, Value: v}
				}
				batches = append(batches, recs)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				srv := New(Config{SiteBuffer: 64})
				if _, err := srv.Registry().Create(kind.tc); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, recs := range batches {
					if acc, errs := srv.Ingest(recs); acc != batchLen || len(errs) != 0 {
						b.Fatalf("ingest accepted %d of %d (%d errors)", acc, batchLen, len(errs))
					}
				}
				srv.Flush()
				t := srv.Registry().Get("m")
				kind.query(b, t)
				b.StopTimer()
				srv.Close()
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(items), "items/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(items), "ns/item")
		})
	}
}
