package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"disttrack/internal/durable"
	"disttrack/internal/obs"
)

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.role != "coord" {
		t.Fatalf("default role = %q", cfg.role)
	}
	// A coordinator binds no TCP ingest listener unless asked to.
	if cfg.listen != "127.0.0.1:8080" || cfg.ingestListen != "" {
		t.Fatalf("default addresses = %q / %q", cfg.listen, cfg.ingestListen)
	}
	if cfg.siteBuffer != 128 {
		t.Fatalf("default site buffer = %d", cfg.siteBuffer)
	}
	if cfg.forwardBatch != 256 || cfg.window != 64 || cfg.forwardDelay != 50*time.Millisecond {
		t.Fatalf("default forwarding = %d/%d/%v", cfg.forwardBatch, cfg.window, cfg.forwardDelay)
	}
	if cfg.grace != 10*time.Second {
		t.Fatalf("default grace = %v", cfg.grace)
	}
	if cfg.logFormat != "text" || cfg.metricsAddr != "" {
		t.Fatalf("default observability flags = %q / %q", cfg.logFormat, cfg.metricsAddr)
	}
	if cfg.dataDir != "" || cfg.ckptEvery != 30*time.Second || cfg.fsync != "interval" {
		t.Fatalf("default durability flags = %q / %v / %q", cfg.dataDir, cfg.ckptEvery, cfg.fsync)
	}
	if cfg.fsyncMode != durable.FsyncInterval {
		t.Fatalf("default fsync mode = %v", cfg.fsyncMode)
	}
}

func TestParseFlagsRoles(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"coord ok", []string{"-role", "coord", "-ingest-listen", ":7171"}, ""},
		{"site ok", []string{"-role", "site", "-upstream", "h:7171", "-node", "edge-1"}, ""},
		{"unknown role", []string{"-role", "proxy"}, "unknown -role"},
		{"removed standalone role", []string{"-role", "standalone"}, "unknown -role \"standalone\" (want coord or site)"},
		{"site missing upstream", []string{"-role", "site", "-node", "e"}, "requires -upstream"},
		{"site missing node", []string{"-role", "site", "-upstream", "h:1"}, "requires -node"},
		{"bad site buffer", []string{"-site-buffer", "0"}, "must be >= 1"},
		{"removed -shards", []string{"-shards", "4"}, "flag provided but not defined"},
		{"removed -shard-queue", []string{"-shard-queue", "64"}, "flag provided but not defined"},
		{"bad window", []string{"-role", "site", "-upstream", "h:1", "-node", "e", "-window", "0"}, "must be >= 1"},
		{"bad grace", []string{"-grace", "-1s"}, "must be positive"},
		{"bad forward delay", []string{"-forward-delay", "0s"}, "must be positive"},
		{"forward batch over the frame limit", []string{"-forward-batch", "1048577"}, "exceeds the frame limit"},
		{"json logs ok", []string{"-log-format", "json"}, ""},
		{"durable ok", []string{"-data-dir", "/tmp/dt", "-fsync", "always", "-checkpoint-interval", "5s"}, ""},
		{"bad fsync", []string{"-data-dir", "/tmp/dt", "-fsync", "sometimes"}, "-fsync"},
		{"bad checkpoint interval", []string{"-checkpoint-interval", "0s"}, "must be positive"},
		{"site with data dir", []string{"-role", "site", "-upstream", "h:1", "-node", "e", "-data-dir", "/tmp/dt"}, "applies to the coord role"},
		{"coord breaker ok", []string{"-role", "coord", "-ingest-listen", ":7171", "-breaker-fail", "3", "-breaker-open", "300ms"}, ""},
		{"coord breaker-fail without ingest listener", []string{"-breaker-fail", "3"}, "need -ingest-listen"},
		{"coord breaker-open without ingest listener", []string{"-role", "coord", "-breaker-open", "1s"}, "need -ingest-listen"},
		{"site with ingest listener", []string{"-role", "site", "-upstream", "h:1", "-node", "e", "-ingest-listen", ":7171"}, "-ingest-listen applies to the coord role"},
		{"site with fsync", []string{"-role", "site", "-upstream", "h:1", "-node", "e", "-fsync", "always"}, "-fsync applies to the coord role"},
		{"site with checkpoint interval", []string{"-role", "site", "-upstream", "h:1", "-node", "e", "-checkpoint-interval", "1s"}, "-checkpoint-interval applies to the coord role"},
		{"site with breaker-fail", []string{"-role", "site", "-upstream", "h:1", "-node", "e", "-breaker-fail", "3"}, "coordinator's per-node breaker"},
		{"site with breaker-open", []string{"-role", "site", "-upstream", "h:1", "-node", "e", "-breaker-open", "1s"}, "coordinator's per-node breaker"},
		{"removed -retry-budget", []string{"-retry-budget", "0.1"}, "flag provided but not defined"},
		{"removed -retry-budget-burst", []string{"-retry-budget-burst", "10"}, "flag provided but not defined"},
		{"bad log format", []string{"-log-format", "xml"}, "unknown -log-format"},
		{"unknown flag", []string{"-nope"}, "flag provided but not defined"},
		{"positional junk", []string{"extra"}, "unexpected arguments"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parseFlags(tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("parseFlags(%v): %v", tc.args, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("parseFlags(%v) = %+v, want error containing %q", tc.args, cfg, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("parseFlags(%v) error = %q, want containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

func TestParseFlagsValues(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-role", "site",
		"-listen", ":9090",
		"-upstream", "coord.internal:7171",
		"-node", "rack-3",
		"-forward-batch", "512",
		"-forward-delay", "10ms",
		"-window", "128",
		"-grace", "3s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.listen != ":9090" || cfg.upstream != "coord.internal:7171" || cfg.node != "rack-3" {
		t.Fatalf("addresses = %+v", cfg)
	}
	if cfg.forwardBatch != 512 || cfg.forwardDelay != 10*time.Millisecond || cfg.window != 128 {
		t.Fatalf("forwarding = %+v", cfg)
	}
	if cfg.grace != 3*time.Second {
		t.Fatalf("grace = %v", cfg.grace)
	}
}

// TestStartMetricsLogsBoundAddress serves the dedicated -metrics listener on
// port 0: the log line must name the port the kernel picked, and that port
// must serve the registry.
func TestStartMetricsLogsBoundAddress(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	reg := obs.NewRegistry()
	reg.NewCounter("smoke_total", "A test counter.").Add(3)
	if err := startMetrics("127.0.0.1:0", reg, logger); err != nil {
		t.Fatal(err)
	}
	var line struct{ Msg, Addr string }
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("log %q: %v", buf.String(), err)
	}
	if line.Msg != "metrics listening" || strings.HasSuffix(line.Addr, ":0") {
		t.Fatalf("logged %+v, want the bound metrics address", line)
	}
	resp, err := http.Get("http://" + line.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "\nsmoke_total 3\n") {
		t.Fatalf("GET /metrics on the logged address:\n%s", body)
	}
	if err := startMetrics(line.Addr, reg, logger); err == nil {
		t.Fatal("second bind of the same address succeeded")
	}
}
