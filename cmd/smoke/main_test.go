package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics(`# HELP disttrack_tenants Live tenants.
# TYPE disttrack_tenants gauge
disttrack_tenants 3
# TYPE disttrack_http_requests_total counter
disttrack_http_requests_total{route="GET /healthz",method="GET",code="200"} 12
# TYPE disttrack_wal_replayed_total counter
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"disttrack_tenants", "disttrack_http_requests_total", "disttrack_wal_replayed_total"} {
		if !m.types[f] {
			t.Errorf("family %s not parsed", f)
		}
	}
	if m.types["disttrack_wal"] {
		t.Error("family parsed from a prefix")
	}
	// A label value may hold spaces; the value is after the last one.
	want := map[string]float64{
		"disttrack_tenants": 3,
		`disttrack_http_requests_total{route="GET /healthz",method="GET",code="200"}`: 12,
	}
	if len(m.samples) != len(want) {
		t.Fatalf("samples %v, want %v", m.samples, want)
	}
	for k, v := range want {
		if m.samples[k] != v {
			t.Errorf("%s = %v, want %v", k, m.samples[k], v)
		}
	}
	if _, err := parseMetrics("disttrack_tenants three\n"); err == nil {
		t.Error("non-numeric sample accepted")
	}
}

// TestListeners reads bound addresses from trackd's JSON log, skipping what
// an earlier boot appended before offset off.
func TestListeners(t *testing.T) {
	log := filepath.Join(t.TempDir(), "coord.log")
	first := `{"msg":"trackd listening","addr":"127.0.0.1:1111"}` + "\n"
	second := `{"level":"INFO","msg":"coord ingest listening","addr":"127.0.0.1:2222"}
not json
{"msg":"durable plane open","data-dir":"d"}
{"msg":"trackd listening","role":"coord","addr":"127.0.0.1:3333"}
`
	if err := os.WriteFile(log, []byte(first+second), 0o644); err != nil {
		t.Fatal(err)
	}
	got := listeners(log, int64(len(first)))
	if len(got) != 2 || got["trackd listening"] != "127.0.0.1:3333" || got["coord ingest listening"] != "127.0.0.1:2222" {
		t.Fatalf("listeners = %v", got)
	}
}
