package main

import (
	"net/http/httptest"
	"testing"
	"time"

	"disttrack/internal/service"
)

func TestHistQuantiles(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.record(time.Duration(i) * time.Microsecond)
	}
	if h.count != 1000 {
		t.Fatalf("count %d", h.count)
	}
	// Log buckets give upper bounds: the p50 bound must cover 500µs but
	// stay within one bucket (2×) of it, and no quantile may exceed max.
	p50 := h.quantile(0.50)
	if p50 < 500*time.Microsecond || p50 > 1024*time.Microsecond {
		t.Fatalf("p50 %v outside [500µs, 1024µs]", p50)
	}
	if q := h.quantile(0.99); q > h.max {
		t.Fatalf("p99 %v > max %v", q, h.max)
	}
	var merged hist
	merged.merge(&h)
	merged.merge(&h)
	if merged.count != 2000 || merged.quantile(0.5) != p50 {
		t.Fatalf("merge changed the distribution: count %d p50 %v", merged.count, merged.quantile(0.5))
	}
}

func TestParseFlags(t *testing.T) {
	if _, err := parseFlags([]string{"-mode", "tcp"}); err == nil {
		t.Fatal("tcp mode without -tcp accepted")
	}
	if _, err := parseFlags([]string{"-mode", "carrier-pigeon"}); err == nil {
		t.Fatal("bad mode accepted")
	}
	if _, err := parseFlags([]string{"-kind", "nope"}); err == nil {
		t.Fatal("bad kind accepted")
	}
	cfg, err := parseFlags([]string{"-duration", "1s", "-conns", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.mode != "http" || cfg.conns != 2 || cfg.duration != time.Second {
		t.Fatalf("bad defaults: %+v", cfg)
	}
}

// TestRunHTTP drives the real run loop — tenant create, concurrent ingest,
// flush, exactly-once check — against an in-process trackd.
func TestRunHTTP(t *testing.T) {
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	cfg, err := parseFlags([]string{
		"-url", ts.URL, "-duration", "200ms", "-conns", "2", "-batch", "64",
		"-check-total",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}
