package service

import (
	"fmt"
	"sync"
	"testing"

	"disttrack/internal/stream"
)

// BenchmarkIngest measures the multi-tenant ingest path end to end:
// concurrent producers submit mixed-tenant record batches, Ingest groups them
// and delivers each tenant's groups under its gate, and each tenant's cluster
// ingests through the site-local fast path. This is the standalone trackd
// hot path (HTTP decoding excluded). Four tenants rotate record by record,
// so every group holds several values.
func BenchmarkIngest(b *testing.B) {
	const tenants, sites, batchLen, producers = 4, 8, 256, 4
	names := []string{"alpha", "beta", "gamma", "delta"}
	templates := make([][]Record, producers)
	for p := range templates {
		recs := make([]Record, batchLen)
		for i := range recs {
			recs[i] = Record{
				Tenant: names[(p+i)%tenants],
				Site:   (p * 31 & (sites - 1)) ^ (i & (sites - 1)),
				Value:  (uint64(i)*2654435761 + uint64(p)) % 4096,
			}
		}
		templates[p] = recs
	}
	benchIngest(b, names, sites, templates)
}

// BenchmarkIngestMixed is the run-free twin: 256 tenants drawn with
// Zipf popularity, so a batch is mostly groups of one or two values and the
// per-tenant costs (registry and index lookups, delivery gates, group
// slices) dominate.
func BenchmarkIngestMixed(b *testing.B) {
	const tenants, sites, batchLen, producers = 256, 4, 512, 4
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("t%03d", i)
	}
	pick := stream.Zipf(tenants, producers*batchLen, 1.1, 1)
	templates := make([][]Record, producers)
	for p := range templates {
		recs := make([]Record, batchLen)
		for i := range recs {
			ti, _ := pick.Next()
			recs[i] = Record{Tenant: names[ti], Site: i % sites, Value: uint64(i*7+p) % 4096}
		}
		templates[p] = recs
	}
	benchIngest(b, names, sites, templates)
}

// benchIngest creates one hh tenant per name and has one producer per
// template submit it b.N/len(templates) times.
func benchIngest(b *testing.B, names []string, sites int, templates [][]Record) {
	srv := New(Config{SiteBuffer: 64})
	defer srv.Close()
	for _, name := range names {
		if _, err := srv.Registry().Create(TenantConfig{Name: name, Kind: KindHH, K: sites, Eps: 0.02}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for p, recs := range templates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := p; i < b.N; i += len(templates) {
				if acc, errs := srv.Ingest(recs); acc != len(recs) || len(errs) != 0 {
					b.Errorf("ingest accepted %d of %d (%d errors)", acc, len(recs), len(errs))
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	srv.Flush()
	b.ReportMetric(float64(len(templates[0])), "records/op")
}
