// Command trackd runs the multi-tenant tracking service (internal/service)
// as an HTTP daemon: many named tracker instances — heavy-hitter, quantile
// and all-quantile tenants — behind one batched ingest path and a JSON
// query API. See docs/service.md for the wire protocol,
// docs/distributed.md for the distributed topology, and
// docs/observability.md for the metrics plane.
//
// trackd runs in one of two roles:
//
//   - coord (default): the full service. With -ingest-listen it also
//     terminates site-node connections on a TCP ingest listener; without
//     it the process serves HTTP alone.
//   - site: an edge node accepting the same HTTP ingest API, batching
//     records per (tenant, site) and pushing delta frames upstream to a
//     coordinator (-upstream), with reconnect-and-resync.
//
// Every role serves Prometheus metrics at GET /metrics on its main
// listener; -metrics additionally serves them on a dedicated address (the
// same pattern as -pprof). Logs are structured (log/slog); -log-format
// selects text (default) or json.
//
// With -data-dir, the coord role runs durably: every accepted ingest batch
// is logged to a per-tenant WAL (-fsync picks the sync policy) and tenants
// are checkpointed on -checkpoint-interval. After a crash, boot recovers
// each tenant from its newest valid checkpoint and replays the WAL tail; a
// graceful SIGTERM drain takes final checkpoints so restarts replay
// nothing. See docs/durability.md.
//
// The distributed roles carry fault-tolerance machinery — a site redials its
// coordinator on capped, jittered exponential backoff, the coordinator runs
// a per-node circuit breaker that damps a flapping site (-breaker-fail,
// -breaker-open; coord role only), and per-tenant admission control is set
// by the QoS fields of the tenant-create API. docs/operations.md is the
// operator runbook for all of it.
//
// Usage:
//
//	trackd [-role coord|site] [-listen 127.0.0.1:8080] ...
//
// Example distributed session:
//
//	trackd -role coord -listen :8080 -ingest-listen :7171 &
//	trackd -role site -node edge-1 -upstream localhost:7171 -listen :8081 &
//	curl -X POST localhost:8080/v1/tenants -d '{"name":"clicks","kind":"hh","k":4,"eps":0.05}'
//	curl -X POST localhost:8081/v1/ingest -d '{"records":[{"tenant":"clicks","site":0,"value":7}]}'
//	curl -X POST localhost:8081/v1/flush
//	curl 'localhost:8080/v1/tenants/clicks/heavy?phi=0.1'
//	curl localhost:8080/metrics
//
// On SIGINT/SIGTERM every role drains gracefully: a server stops accepting
// requests and drains the tenants' clusters; a site node
// pushes its buffered batches upstream and fences the coordinator before
// exiting, so everything acknowledged is processed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"disttrack/internal/durable"
	"disttrack/internal/obs"
	"disttrack/internal/remote"
	"disttrack/internal/service"
)

// setupLogger installs the process-wide structured logger. Handlers write
// to stderr, keeping stdout free for any future machine-readable output.
func setupLogger(format string) *slog.Logger {
	var h slog.Handler
	if format == "json" {
		h = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		h = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(h)
	slog.SetDefault(logger)
	return logger
}

// listen binds addr and logs the address it bound under msg, so an address
// like 127.0.0.1:0 works: the log line names the port the kernel picked.
func listen(logger *slog.Logger, addr, msg string, attrs ...any) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	logger.Info(msg, append(attrs, "addr", ln.Addr().String())...)
	return ln, nil
}

// serveSide serves h on a dedicated listener (-pprof, -metrics) for the
// life of the process. A bind failure fails the boot.
func serveSide(logger *slog.Logger, name, addr string, h http.Handler) error {
	ln, err := listen(logger, addr, name+" listening")
	if err != nil {
		return fmt.Errorf("-%s: %w", name, err)
	}
	go func() {
		if err := http.Serve(ln, h); err != nil {
			logger.Error(name+" serve failed", "addr", ln.Addr().String(), "err", err)
		}
	}()
	return nil
}

// startPprof serves the net/http/pprof handlers on their own listener when
// -pprof is set, so profiling never shares a port (or a mux) with the
// public API. Off by default.
func startPprof(addr string, logger *slog.Logger) error {
	if addr == "" {
		return nil
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return serveSide(logger, "pprof", addr, mux)
}

// startMetrics serves GET /metrics on its own listener when -metrics is
// set — the same dedicated-listener pattern as -pprof, for deployments that
// keep the scrape endpoint off the public API port. The main listener
// serves /metrics in every role regardless.
func startMetrics(addr string, reg *obs.Registry, logger *slog.Logger) error {
	if addr == "" {
		return nil
	}
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	return serveSide(logger, "metrics", addr, mux)
}

// config is trackd's parsed command line.
type config struct {
	role        string
	listen      string
	pprofAddr   string
	metricsAddr string
	logFormat   string
	siteBuffer  int
	grace       time.Duration

	// durable plane (coord role)
	dataDir   string
	ckptEvery time.Duration
	fsync     string
	fsyncMode durable.FsyncMode // parsed from fsync by validate

	// coord role
	ingestListen string
	breakerFail  int
	breakerOpen  time.Duration

	// site role
	upstream     string
	node         string
	forwardBatch int
	forwardDelay time.Duration
	window       int
}

// parseFlags parses args (without the program name) into a config.
func parseFlags(args []string) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("trackd", flag.ContinueOnError)
	fs.StringVar(&cfg.role, "role", "coord", "coord | site")
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:8080", "HTTP listen address")
	fs.StringVar(&cfg.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = off)")
	fs.StringVar(&cfg.metricsAddr, "metrics", "", "serve GET /metrics on a dedicated address too (empty = main listener only)")
	fs.StringVar(&cfg.logFormat, "log-format", "text", "log output format: text | json")
	fs.IntVar(&cfg.siteBuffer, "site-buffer", 128, "per-site cluster channel capacity (batches)")
	fs.DurationVar(&cfg.grace, "grace", 10*time.Second, "shutdown grace period for in-flight HTTP requests")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "durable plane: per-tenant WAL + checkpoints under this directory, with crash recovery on boot (empty = off)")
	fs.DurationVar(&cfg.ckptEvery, "checkpoint-interval", 30*time.Second, "per-tenant checkpoint cadence (needs -data-dir)")
	fs.StringVar(&cfg.fsync, "fsync", "interval", "WAL sync policy: always | interval | never (needs -data-dir)")
	fs.StringVar(&cfg.ingestListen, "ingest-listen", "", "coord: TCP listen address for site-node ingest (empty = no TCP listener)")
	fs.StringVar(&cfg.upstream, "upstream", "", "site: coordinator ingest address (required)")
	fs.StringVar(&cfg.node, "node", "", "site: stable node name (required; keys reconnect resync)")
	fs.IntVar(&cfg.forwardBatch, "forward-batch", 256, "site: values per upstream batch frame")
	fs.DurationVar(&cfg.forwardDelay, "forward-delay", 50*time.Millisecond, "site: max buffering delay before a partial batch is sent")
	fs.IntVar(&cfg.window, "window", 64, "site: max unacknowledged frames in flight")
	fs.IntVar(&cfg.breakerFail, "breaker-fail", 0, "coord: consecutive no-progress connections that trip a site node's breaker (0 = default 5)")
	fs.DurationVar(&cfg.breakerOpen, "breaker-open", 0, "coord: how long a tripped node breaker refuses handshakes before a probe (0 = default 5s)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if len(fs.Args()) > 0 {
		return config{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	return cfg, cfg.validate()
}

// validate checks the flag set and resolves parsed-from-string fields
// (fsyncMode), hence the pointer receiver.
func (c *config) validate() error {
	switch c.role {
	case "coord", "site":
	default:
		return fmt.Errorf("unknown -role %q (want coord or site)", c.role)
	}
	switch c.logFormat {
	case "text", "json":
	default:
		return fmt.Errorf("unknown -log-format %q (want text or json)", c.logFormat)
	}
	if c.role == "site" {
		if c.upstream == "" {
			return fmt.Errorf("-role site requires -upstream")
		}
		if c.node == "" {
			return fmt.Errorf("-role site requires -node (a stable name; it keys replay dedup across reconnects)")
		}
	}
	if c.siteBuffer < 1 {
		return fmt.Errorf("-site-buffer must be >= 1")
	}
	if c.forwardBatch < 1 || c.window < 1 {
		return fmt.Errorf("-forward-batch and -window must be >= 1")
	}
	if c.forwardBatch > remote.MaxBatchLen {
		return fmt.Errorf("-forward-batch %d exceeds the frame limit %d", c.forwardBatch, remote.MaxBatchLen)
	}
	if c.forwardDelay <= 0 {
		return fmt.Errorf("-forward-delay must be positive")
	}
	if c.grace <= 0 {
		return fmt.Errorf("-grace must be positive")
	}
	if c.ckptEvery <= 0 {
		return fmt.Errorf("-checkpoint-interval must be positive")
	}
	mode, err := durable.ParseFsyncMode(c.fsync)
	if err != nil {
		return fmt.Errorf("-fsync: %w", err)
	}
	c.fsyncMode = mode
	if c.dataDir != "" && c.role == "site" {
		return fmt.Errorf("-data-dir applies to the coord role (a site node holds no tracker state)")
	}
	if c.breakerFail < 0 || c.breakerOpen < 0 {
		return fmt.Errorf("-breaker-fail and -breaker-open must be >= 0 (0 = package default)")
	}
	if (c.breakerFail != 0 || c.breakerOpen != 0) && c.role == "site" {
		return fmt.Errorf("-breaker-fail and -breaker-open tune the coordinator's per-node breaker (a site node's redials are paced by backoff alone)")
	}
	return nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := setupLogger(cfg.logFormat)
	switch cfg.role {
	case "site":
		err = runSite(cfg, logger)
	default:
		err = runServer(cfg, logger)
	}
	if err != nil {
		logger.Error("trackd failed", "role", cfg.role, "err", err)
		os.Exit(1)
	}
}

// runServer runs the coord role.
func runServer(cfg config, logger *slog.Logger) error {
	if err := startPprof(cfg.pprofAddr, logger); err != nil {
		return err
	}
	svc, err := service.Open(service.Config{
		SiteBuffer:             cfg.siteBuffer,
		NodeBreakerFailures:    cfg.breakerFail,
		NodeBreakerOpenTimeout: cfg.breakerOpen,
		DataDir:                cfg.dataDir,
		CheckpointInterval:     cfg.ckptEvery,
		Fsync:                  cfg.fsyncMode,
	})
	if err != nil {
		return err
	}
	if cfg.dataDir != "" {
		rs := svc.RecoveryStats()
		logger.Info("durable plane open", "data-dir", cfg.dataDir,
			"fsync", cfg.fsync, "checkpoint-interval", cfg.ckptEvery.String(),
			"recovered-tenants", rs.RecoveredTenants,
			"replayed-records", rs.ReplayedRecords,
			"quarantined-checkpoints", rs.QuarantinedCheckpoints,
			"torn-wal-tails", rs.TornTails,
			"durable-cursors", rs.DurableCursors,
			"cursor-nodes", rs.CursorNodes,
			"membership-epoch", svc.Epoch())
		// A pre-PR9 data directory has no cursor table. WAL provenance (if
		// any) still seeds the dedup floor; absent both, replay protection
		// falls back to the in-memory dedup window, which a long enough
		// site-node replay tail can outrun.
		if cfg.ingestListen != "" && rs.RecoveredTenants > 0 && !rs.DurableCursors {
			logger.Warn("no durable cursor table found; node replay dedup falls back to the in-memory window until the first checkpoint cycle persists one",
				"data-dir", cfg.dataDir, "cursor-nodes", rs.CursorNodes)
		}
	}
	if err := startMetrics(cfg.metricsAddr, svc.Metrics(), logger); err != nil {
		return err
	}
	if cfg.ingestListen != "" {
		ri, err := svc.ServeRemote(cfg.ingestListen)
		if err != nil {
			return err
		}
		logger.Info("coord ingest listening", "addr", ri.Addr())
	}
	ln, err := listen(logger, cfg.listen, "trackd listening", "role", cfg.role)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		logger.Info("draining", "signal", sig.String())
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.grace)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "err", err)
	}
	svc.Close()
	logger.Info("drained, bye")
	return nil
}

// runSite runs the site role: HTTP ingest in, batched frames upstream.
func runSite(cfg config, logger *slog.Logger) error {
	if err := startPprof(cfg.pprofAddr, logger); err != nil {
		return err
	}
	node, err := service.NewSiteNode(service.SiteNodeConfig{
		Node:         cfg.node,
		Upstream:     cfg.upstream,
		Window:       cfg.window,
		DrainTimeout: cfg.grace,
		BatchSize:    cfg.forwardBatch,
		MaxDelay:     cfg.forwardDelay,
	})
	if err != nil {
		return err
	}
	if err := startMetrics(cfg.metricsAddr, node.Metrics(), logger); err != nil {
		node.Close()
		return err
	}
	ln, err := listen(logger, cfg.listen, "trackd site listening", "node", cfg.node, "upstream", cfg.upstream)
	if err != nil {
		node.Close()
		return err
	}
	hs := &http.Server{Handler: node.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		logger.Info("draining upstream", "signal", sig.String())
	case err := <-errc:
		node.Close()
		return fmt.Errorf("serve: %w", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.grace)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "err", err)
	}
	// Close flushes buffered batches upstream and fences the coordinator,
	// so everything this node acknowledged is visible there.
	if err := node.Close(); err != nil {
		logger.Warn("drain", "err", err)
	}
	st := node.Stats()
	logger.Info("drained, bye",
		"accepted", st.Accepted, "batches", st.Batches, "reconnects", st.Reconnects)
	return nil
}
