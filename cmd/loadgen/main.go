// Command loadgen is a wrk-style load harness for trackd: concurrent
// workers drive a fixed-seed Zipf record stream at a running service over
// either ingest plane and report throughput plus a latency histogram.
//
// Two modes:
//
//   - http (default): POST /v1/ingest batches at a standalone or coord
//     trackd, honoring 429 Retry-After back-pressure. Latency is the full
//     request round trip.
//   - tcp: dial the coordinator's site-node ingest listener (trackd -role
//     coord -ingest-listen) and push delta frames like a fleet of site
//     nodes, one connection per worker. Latency is the SendBatch admission
//     time — how long the windowed sender blocks on back-pressure.
//
// With -check-total, loadgen fences the pipeline after the run (POST
// /v1/flush, or the TCP flush barrier) and compares the tenant's processed
// counter against what it sent, exiting nonzero on a mismatch — a live
// exactly-once check for the whole ingest path.
//
// Example session (against the docs/operations.md pair):
//
//	trackd -role coord -listen :8080 -ingest-listen :7171 &
//	loadgen -url http://localhost:8080 -duration 10s -conns 4
//	loadgen -url http://localhost:8080 -mode tcp -tcp localhost:7171 -check-total
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"disttrack/internal/remote"
	"disttrack/internal/service"
	"disttrack/internal/stream"
)

// config is loadgen's parsed command line.
type config struct {
	mode     string
	url      string
	tcpAddr  string
	tenant   string
	kind     string
	k        int
	eps      float64
	conns    int
	batch    int
	duration time.Duration
	seed     int64
	domain   int64
	skew     float64
	check    bool
	create   bool
}

func parseFlags(args []string) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.StringVar(&cfg.mode, "mode", "http", "ingest plane to drive: http | tcp")
	fs.StringVar(&cfg.url, "url", "http://127.0.0.1:8080", "trackd HTTP base URL (control plane in both modes)")
	fs.StringVar(&cfg.tcpAddr, "tcp", "", "coordinator ingest address (-role coord -ingest-listen); required for -mode tcp")
	fs.StringVar(&cfg.tenant, "tenant", "load", "tenant to drive")
	fs.StringVar(&cfg.kind, "kind", "hh", "tenant kind when creating: hh | quantile | allq")
	fs.IntVar(&cfg.k, "k", 4, "tenant site count; records rotate over sites 0..k-1")
	fs.Float64Var(&cfg.eps, "eps", 0.05, "tenant approximation error when creating")
	fs.IntVar(&cfg.conns, "conns", 4, "concurrent workers (connections)")
	fs.IntVar(&cfg.batch, "batch", 256, "records per ingest batch")
	fs.DurationVar(&cfg.duration, "duration", 10*time.Second, "how long to drive load")
	fs.Int64Var(&cfg.seed, "seed", 1, "rng seed (worker w uses seed+w, so runs are reproducible)")
	fs.Int64Var(&cfg.domain, "domain", 1<<20, "value domain size")
	fs.Float64Var(&cfg.skew, "skew", 1.3, "Zipf skew (> 1)")
	fs.BoolVar(&cfg.check, "check-total", false, "after the run, flush and verify the tenant processed exactly what was sent")
	fs.BoolVar(&cfg.create, "create", true, "create the tenant if it does not exist")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if len(fs.Args()) > 0 {
		return config{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	switch cfg.mode {
	case "http":
	case "tcp":
		if cfg.tcpAddr == "" {
			return config{}, fmt.Errorf("-mode tcp requires -tcp (coordinator ingest address)")
		}
	default:
		return config{}, fmt.Errorf("unknown -mode %q (want http or tcp)", cfg.mode)
	}
	switch cfg.kind {
	case "hh", "quantile", "allq":
	default:
		return config{}, fmt.Errorf("unknown -kind %q (want hh, quantile or allq)", cfg.kind)
	}
	if cfg.conns < 1 || cfg.batch < 1 || cfg.k < 1 {
		return config{}, fmt.Errorf("-conns, -batch and -k must be >= 1")
	}
	if cfg.duration <= 0 {
		return config{}, fmt.Errorf("-duration must be positive")
	}
	return cfg, nil
}

// hist is a lock-free-per-worker log₂-bucketed latency histogram: bucket i
// holds samples in [2^i, 2^(i+1)) nanoseconds, plenty of resolution for a
// p50/p90/p99 summary without recording every sample.
type hist struct {
	buckets [48]int64
	count   int64
	max     time.Duration
}

func (h *hist) record(d time.Duration) {
	if d < 1 {
		d = 1
	}
	i := bits.Len64(uint64(d.Nanoseconds())) - 1
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i]++
	h.count++
	if d > h.max {
		h.max = d
	}
}

func (h *hist) merge(o *hist) {
	for i, n := range o.buckets {
		h.buckets[i] += n
	}
	h.count += o.count
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns an upper bound for the p-th latency quantile (the top of
// the bucket holding the p-th sample, clamped to the observed max).
func (h *hist) quantile(p float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	rank := int64(p * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen > rank {
			ub := time.Duration(int64(1)<<(i+1) - 1)
			if ub > h.max {
				ub = h.max
			}
			return ub
		}
	}
	return h.max
}

// workerStats is one worker's tally, merged after the run.
type workerStats struct {
	lat       hist
	sent      int64 // records acknowledged (HTTP accepted / TCP admitted)
	batches   int64
	throttled int64 // whole batches deferred by 429 Retry-After
	errs      int64
}

// sender pushes one pre-built batch and returns how many records landed.
type sender interface {
	send(recs []service.Record, values []uint64) (int, error)
	// finish fences everything the sender pushed (and releases it).
	finish() error
}

// httpSender drives POST /v1/ingest, honoring 429 Retry-After.
type httpSender struct {
	cfg    config
	client *http.Client
	st     *workerStats
}

func (s *httpSender) send(recs []service.Record, _ []uint64) (int, error) {
	body, err := json.Marshal(map[string]any{"records": recs})
	if err != nil {
		return 0, err
	}
	for {
		resp, err := s.client.Post(s.cfg.url+"/v1/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			s.st.throttled++
			secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			if secs < 1 {
				secs = 1
			}
			time.Sleep(time.Duration(secs) * time.Second)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("ingest: status %d: %s", resp.StatusCode, raw)
		}
		var out struct {
			Accepted int `json:"accepted"`
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			return 0, err
		}
		return out.Accepted, nil
	}
}

func (s *httpSender) finish() error { return nil }

// tcpSender pushes delta frames over one NodeClient, impersonating a site
// node: per-(tenant,site) value batches, exactly-once after the
// coordinator's sequence dedup.
type tcpSender struct {
	cfg config
	cl  *remote.NodeClient
	seq int
}

func (s *tcpSender) send(_ []service.Record, values []uint64) (int, error) {
	site := s.seq % s.cfg.k
	s.seq++
	// SendBatch takes ownership; hand it a copy so the worker's buffer is
	// reusable.
	vs := append([]uint64(nil), values...)
	if err := s.cl.SendBatch(s.cfg.tenant, site, remote.TKindUnknown, vs); err != nil {
		return 0, err
	}
	return len(vs), nil
}

func (s *tcpSender) finish() error {
	if err := s.cl.Flush(); err != nil {
		return err
	}
	return s.cl.Close()
}

// worker drives one connection until the deadline.
func worker(cfg config, w int, snd sender, st *workerStats, deadline time.Time) {
	gen := stream.Zipf(cfg.domain, 1<<62, cfg.skew, cfg.seed+int64(w))
	recs := make([]service.Record, cfg.batch)
	values := make([]uint64, cfg.batch)
	for time.Now().Before(deadline) {
		for i := range recs {
			v, _ := gen.Next()
			values[i] = v
			recs[i] = service.Record{Tenant: cfg.tenant, Site: (w + i) % cfg.k, Value: v}
		}
		t0 := time.Now()
		n, err := snd.send(recs, values)
		if err != nil {
			st.errs++
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return
		}
		st.lat.record(time.Since(t0))
		st.sent += int64(n)
		st.batches++
	}
}

// ensureTenant creates the target tenant, tolerating one that exists.
func ensureTenant(cfg config) error {
	body, err := json.Marshal(map[string]any{
		"name": cfg.tenant, "kind": cfg.kind, "k": cfg.k, "eps": cfg.eps,
	})
	if err != nil {
		return err
	}
	resp, err := http.Post(cfg.url+"/v1/tenants", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusConflict {
		return nil
	}
	raw, _ := io.ReadAll(resp.Body)
	return fmt.Errorf("create tenant: status %d: %s", resp.StatusCode, raw)
}

// checkTotals fences the pipeline and compares the tenant's processed
// counter against what the run sent.
func checkTotals(cfg config, sent int64) error {
	if cfg.mode == "http" {
		resp, err := http.Post(cfg.url+"/v1/flush", "application/json", bytes.NewReader([]byte("{}")))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("flush: status %d", resp.StatusCode)
		}
	} // tcp: every sender's finish() already ran the coordinator flush barrier
	resp, err := http.Get(cfg.url + "/v1/tenants/" + cfg.tenant)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st struct {
		Processed int64 `json:"processed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	if st.Processed < sent {
		return fmt.Errorf("exactly-once check failed: sent %d, tenant processed %d", sent, st.Processed)
	}
	fmt.Printf("exactly-once check ok: sent %d, tenant processed %d\n", sent, st.Processed)
	return nil
}

func run(cfg config) error {
	if cfg.create {
		if err := ensureTenant(cfg); err != nil {
			return err
		}
	}
	stats := make([]workerStats, cfg.conns)
	senders := make([]sender, cfg.conns)
	for w := range senders {
		switch cfg.mode {
		case "http":
			senders[w] = &httpSender{cfg: cfg, client: &http.Client{Timeout: 30 * time.Second}, st: &stats[w]}
		case "tcp":
			cl, err := remote.DialNode(cfg.tcpAddr, remote.NodeConfig{
				Node: fmt.Sprintf("loadgen-%d-%d", os.Getpid(), w),
			})
			if err != nil {
				return fmt.Errorf("dial %s: %w", cfg.tcpAddr, err)
			}
			senders[w] = &tcpSender{cfg: cfg, cl: cl}
		}
	}
	start := time.Now()
	deadline := start.Add(cfg.duration)
	var wg sync.WaitGroup
	for w := 0; w < cfg.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker(cfg, w, senders[w], &stats[w], deadline)
		}(w)
	}
	wg.Wait()
	// Fence before stopping the clock: the run is not "done" until
	// everything it pushed is acknowledged (TCP) — matching what a site
	// node's drain guarantees.
	for _, s := range senders {
		if err := s.finish(); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)

	var total workerStats
	for i := range stats {
		total.lat.merge(&stats[i].lat)
		total.sent += stats[i].sent
		total.batches += stats[i].batches
		total.throttled += stats[i].throttled
		total.errs += stats[i].errs
	}
	rps := float64(total.sent) / elapsed.Seconds()
	fmt.Printf("loadgen %s: %d conns × %d-record batches for %v\n",
		cfg.mode, cfg.conns, cfg.batch, elapsed.Round(time.Millisecond))
	fmt.Printf("  sent      %d records in %d batches (%.0f records/s)\n", total.sent, total.batches, rps)
	fmt.Printf("  latency   p50 %v  p90 %v  p99 %v  max %v\n",
		total.lat.quantile(0.50), total.lat.quantile(0.90), total.lat.quantile(0.99), total.lat.max)
	if total.throttled > 0 {
		fmt.Printf("  throttled %d batches (429 Retry-After)\n", total.throttled)
	}
	if total.errs > 0 {
		return fmt.Errorf("%d workers aborted on errors; sent %d records", total.errs, total.sent)
	}
	if total.sent == 0 {
		return errors.New("no records sent")
	}
	if cfg.check {
		return checkTotals(cfg, total.sent)
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
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}
