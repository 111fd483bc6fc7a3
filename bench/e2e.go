package main

// The end-to-end driver. Of the system under test it imports only
// internal/service (plus internal/stream and internal/oracle through gen.go
// and check.go) — the surfaces least likely to change — so a refactor below
// the service API leaves this file alone and only retires ladder rungs.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"disttrack/internal/service"
)

// system is one booted instance of the service carrying the workload's
// tenants, with whichever loopback edges the transport needs. send and
// flush are the sender's two operations; ladder rungs swap them to enter
// the same system at a different layer.
type system struct {
	in      *input
	srv     *service.Server
	tenants []*service.Tenant

	httpSrv *http.Server
	baseURL string
	clients []*http.Client // one keep-alive connection per producer, then one for queries
	wire    atomic.Int64   // bytes the ingest clients wrote to and read from their sockets

	remote *service.RemoteIngest
	nodes  []*service.SiteNode

	sendName   string // span name of one send call
	send       func(p int, b *batch) (accepted int, err error)
	flush      func() error
	extraClose []func() // what a ladder rung's rewiring opened

	untimed        time.Duration // part of boot that is the benchmark's own bookkeeping
	createUS       float64       // mean Registry.Create time per tenant
	rssKBPerTenant float64
	goroutinesPer  float64
}

// countConn counts the bytes that cross a client socket, both directions.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// boot starts the service with the input's tenants, opens the loopback
// edges the transport needs, and ingests the warm-up batches. cfg is the
// zero Config (the defaults an operator gets) except on the durable rung.
func boot(in *input, tr transport, cfg service.Config) (*system, error) {
	s := &system{in: in}
	var err error
	if s.srv, err = service.Open(cfg); err != nil {
		return nil, err
	}
	// A forced collection gives the per-tenant RSS delta a clean baseline.
	// It is the benchmark's own work (it has the whole ground truth to
	// mark), so its duration is kept out of setup_s.
	g0 := time.Now()
	debug.FreeOSMemory()
	s.untimed = time.Since(g0)
	rss0, gor0 := rssKB(), runtime.NumGoroutine()
	t0 := time.Now()
	for _, tp := range in.tenants {
		t, err := s.srv.Registry().Create(tp.cfg)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("create tenant %s: %w", tp.cfg.Name, err)
		}
		s.tenants = append(s.tenants, t)
	}
	n := float64(len(in.tenants))
	s.createUS = float64(time.Since(t0).Microseconds()) / n
	s.goroutinesPer = float64(runtime.NumGoroutine()-gor0) / n
	s.rssKBPerTenant = float64(rssKB()-rss0) / n

	s.sendName, s.flush = "Server.Ingest", func() error { s.srv.Flush(); return nil }
	s.send = func(_ int, b *batch) (int, error) {
		acc, _ := s.srv.Ingest(b.recs)
		return acc, nil
	}
	if tr == overHTTP || in.w.openLoop {
		if err := s.listenHTTP(); err != nil {
			s.close()
			return nil, err
		}
	}
	switch tr {
	case overHTTP:
		s.sendName, s.send, s.flush = "POST /v1/ingest", s.postIngest, s.postFlush
	case overTCP:
		if s.remote, err = s.srv.ServeRemote("127.0.0.1:0"); err != nil {
			s.close()
			return nil, err
		}
		for p := 0; p < producers; p++ {
			node, err := service.NewSiteNode(service.SiteNodeConfig{
				Node: fmt.Sprintf("node%d", p), Upstream: s.remote.Addr()})
			if err != nil {
				s.close()
				return nil, err
			}
			s.nodes = append(s.nodes, node)
		}
		s.sendName = "SiteNode.Ingest"
		s.send = func(p int, b *batch) (int, error) {
			acc, _ := s.nodes[p].Ingest(b.recs)
			return acc, nil
		}
		s.flush = func() error {
			for _, node := range s.nodes {
				if err := node.Flush(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return s, nil
}

// warmUp ingests the input's leading batches and waits for them, so lazy
// set-up (pools, maps, connections, the bootstrap phase) is paid before the
// timed section. The records count towards the stream and its ground truth.
func (s *system) warmUp() (accepted int64, err error) {
	for i := 0; i < s.in.warm; i++ {
		n, err := s.send(i%producers, &s.in.block[i])
		if err != nil {
			return accepted, err
		}
		accepted += int64(n)
	}
	return accepted, s.flush()
}

func (s *system) listenHTTP() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.baseURL = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{Handler: s.srv.Handler()}
	go s.httpSrv.Serve(ln)     // returns when close() shuts the server down
	var queryWire atomic.Int64 // the query client's bytes are not ingest edge bytes
	for i := 0; i <= producers; i++ {
		var d net.Dialer
		counter := &s.wire
		if i == producers {
			counter = &queryWire
		}
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c, err := d.DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return countConn{c, counter}, nil
			},
		}})
	}
	return nil
}

var acceptedAll = []byte(fmt.Sprintf(`{"accepted":%d}`, batchRecords))

func (s *system) postIngest(p int, b *batch) (int, error) {
	resp, err := s.clients[p].Post(s.baseURL+"/v1/ingest", "application/json", bytes.NewReader(b.body))
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(body, acceptedAll) {
		// Anything short of "all accepted" counts the whole batch as failed:
		// the workloads are chosen so that no record is refused.
		return 0, nil
	}
	return len(b.recs), nil
}

func (s *system) postFlush() error {
	resp, err := s.clients[0].Post(s.baseURL+"/v1/flush", "application/json", nil)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/flush: %s", resp.Status)
	}
	return nil
}

// close stops everything boot started and waits for it.
func (s *system) close() {
	for _, f := range s.extraClose {
		f()
	}
	for _, node := range s.nodes {
		node.Close()
	}
	if s.httpSrv != nil {
		for _, c := range s.clients {
			c.CloseIdleConnections()
		}
		s.httpSrv.Close()
	}
	s.srv.Close()
}

// loopStats is what the timed section measured.
type loopStats struct {
	records   int64 // records sent in the timed section
	accepted  int64 // of which accepted
	wall      time.Duration
	cpu       float64
	busy      time.Duration // total time the senders spent inside send calls
	flushWait time.Duration
	sending   time.Duration // open loop: first send due until the last one returned
	ingestUS  []float64     // per batch, stream order
	lateMS    []float64     // open loop: how late each send started
	err       error
}

// runClosed is the closed-loop timed section: each of the two producers
// sends its next batch only after the previous one returned; then the
// flush barrier. Producer p owns batches p, p+2, ... of the stream.
func (s *system) runClosed(tr *tracer, parent int) loopStats {
	in := s.in
	total := in.totalBatches()
	st := loopStats{ingestUS: make([]float64, total-in.warm)}
	var accepted, busy atomic.Int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	cpu0, t0 := cpuSeconds(), time.Now()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var acc int
			var spent time.Duration
			for i := in.warm + (p-in.warm%producers+producers)%producers; i < total; i += producers {
				b := &in.block[i%len(in.block)]
				sp := tr.begin(s.sendName, parent, i)
				c0 := time.Now()
				n, err := s.send(p, b)
				d := time.Since(c0)
				tr.end(sp)
				if err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				st.ingestUS[i-in.warm] = float64(d.Nanoseconds()) / 1e3
				acc += n
				spent += d
			}
			accepted.Add(int64(acc))
			busy.Add(int64(spent))
		}(p)
	}
	wg.Wait()
	f0 := time.Now()
	sp := tr.begin("flush", parent, -1)
	err := s.flush()
	tr.end(sp)
	st.wall, st.cpu = time.Since(t0), cpuSeconds()-cpu0
	st.flushWait = time.Since(f0)
	st.records = int64(total-in.warm) * batchRecords
	st.accepted, st.busy = accepted.Load(), time.Duration(busy.Load())
	if e := firstErr.Load(); e != nil {
		err = *e
	}
	st.err = err
	return st
}

// queryStats is what a query client measured.
type queryStats struct {
	us        []float64 // every request
	us200     []float64 // answered with a body
	us304     []float64 // answered 304 from the ETag
	attempted int64
	failed    int64 // transport errors, or a status other than 200 and 304
}

// runMixed is the open-loop timed section: one sender issues a batch every
// 1/mixedRate seconds whether or not the system keeps up, timing each from
// the moment it was due; beside it one closed-loop HTTP client cycles the
// four query endpoints, every other request conditional on the last ETag.
func (s *system) runMixed(specs []querySpec, tr *tracer, parent int) (loopStats, queryStats) {
	in := s.in
	total := in.totalBatches()
	n := total - in.warm
	st := loopStats{ingestUS: make([]float64, n), lateMS: make([]float64, n)}
	var qs queryStats
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		etags := make([]string, len(specs))
		for i := 0; !done.Load(); i++ {
			k := i % len(specs)
			inm := ""
			if i%2 == 1 {
				inm = etags[k]
			}
			sp := tr.begin("GET "+specs[k].kind.String(), parent, -1)
			c0 := time.Now()
			_, status, etag, err := s.get(s.clients[producers], specs[k], inm)
			us := float64(time.Since(c0).Nanoseconds()) / 1e3
			tr.end(sp)
			qs.attempted++
			qs.us = append(qs.us, us)
			switch {
			case err != nil:
				qs.failed++
			case status == http.StatusOK:
				qs.us200 = append(qs.us200, us)
				etags[k] = etag
			case status == http.StatusNotModified:
				qs.us304 = append(qs.us304, us)
			default:
				qs.failed++
			}
		}
	}()
	interval := time.Second / mixedRate
	cpu0, t0 := cpuSeconds(), time.Now()
	for i := 0; i < n; i++ {
		// Busy-wait for the due time, yielding the processor on every turn.
		// A sleep is no use as a pacer here: once the process idles, the
		// reference VM's kernel rounds the wake-up to 4 ms ticks, most of the
		// sending interval, and that lateness would be reported as the
		// system's latency. The price is that the sender soaks up whatever
		// CPU the system leaves idle, so cpu_s_per_mrecord says little here.
		due := t0.Add(time.Duration(i) * interval)
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		start := time.Now()
		sp := tr.begin(s.sendName, parent, in.warm+i)
		acc, err := s.send(0, &in.block[(in.warm+i)%len(in.block)])
		tr.end(sp)
		if err != nil && st.err == nil {
			st.err = err
		}
		st.lateMS[i] = float64(start.Sub(due).Nanoseconds()) / 1e6
		st.ingestUS[i] = float64(time.Since(due).Nanoseconds()) / 1e3
		st.busy += time.Since(start)
		st.accepted += int64(acc)
	}
	st.sending = time.Since(t0)
	done.Store(true)
	wg.Wait()
	f0 := time.Now()
	sp := tr.begin("flush", parent, -1)
	if err := s.flush(); err != nil && st.err == nil {
		st.err = err
	}
	tr.end(sp)
	st.wall, st.cpu = time.Since(t0), cpuSeconds()-cpu0
	st.flushWait = time.Since(f0)
	st.records = int64(n) * batchRecords
	return st, qs
}

// report is everything one end-to-end run measured, before it is reduced to
// named metrics.
type report struct {
	in                                      *input
	transport                               transport
	setupS                                  []float64
	loop                                    loopStats
	ingest                                  latencies
	query                                   latencies
	queries                                 queryStats
	warm                                    int64 // records accepted during warm-up
	attempted                               int64 // operations: records sent, queries made, answers checked
	failed                                  int64
	words                                   int64
	batches                                 int64 // (tenant, site) groups the tenants' clusters processed
	edgeBytes                               float64
	peakRSSKB                               int64
	errOverEps                              float64
	mem                                     memDelta
	scrape                                  scrape
	createUS, rssKBPerTenant, goroutinesPer float64
	remote                                  remoteCounts
	queriesViaHTTP                          bool
	broken                                  []string // accounting identities that did not hold
}

// remoteCounts is the TCP link's traffic, from RemoteStats and SiteNodeStats.
type remoteCounts struct {
	bytesIn, bytesOut, frames, resent int64
}

// memDelta is the runtime.MemStats change over the timed section.
type memDelta struct {
	mallocs, bytes, pauseNs uint64
	cycles                  uint32
}

func memNow() (m runtime.MemStats) { runtime.ReadMemStats(&m); return }

func memSince(m0 runtime.MemStats) memDelta {
	m1 := memNow()
	return memDelta{m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc,
		m1.PauseTotalNs - m0.PauseTotalNs, m1.NumGC - m0.NumGC}
}

// runOpts selects how runE2E enters the system.
type runOpts struct {
	transport  transport
	setups     int                 // set-up repetitions; setup_s is their median
	cfg        service.Config      // zero except on the durable rung
	tracer     *tracer             // nil: untraced
	rewire     func(*system) error // ladder rungs: swap send/flush after boot
	closedLoop bool                // run mixed_query's records closed-loop (the service rung)
}

// runE2E sets the workload up (opts.setups times, keeping the last), runs
// the timed section, the query spread and the checks, and tears it down.
func runE2E(w *workload, seed int64, seconds float64, opts runOpts) (*report, error) {
	r := &report{transport: opts.transport}
	root := opts.tracer.begin("workload "+w.name, -1, -1)
	var sys *system
	sp := opts.tracer.begin("setup", root, -1)
	for i := 0; i < max(opts.setups, 1); i++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		in := generate(w, seed, seconds)
		var err error
		if sys, err = boot(in, opts.transport, opts.cfg); err != nil {
			return nil, err
		}
		if opts.rewire != nil {
			if err := opts.rewire(sys); err != nil {
				sys.close()
				return nil, err
			}
		}
		if r.warm, err = sys.warmUp(); err != nil {
			sys.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		r.setupS = append(r.setupS, (time.Since(t0) - sys.untimed).Seconds())
	}
	opts.tracer.end(sp)
	defer sys.close()
	in := sys.in
	r.in, r.createUS, r.rssKBPerTenant, r.goroutinesPer = in, sys.createUS, sys.rssKBPerTenant, sys.goroutinesPer

	// Earlier set-ups are garbage now; hand their memory back so the RSS
	// peak and the GC counters below belong to this run alone.
	debug.FreeOSMemory()
	rss := startRSSSampler()
	m0 := memNow()
	specs := querySpecs(in)
	sp = opts.tracer.begin("ingest", root, -1)
	open := w.openLoop && !opts.closedLoop
	var beside queryStats // the query client beside an open-loop sender
	if open {
		r.loop, beside = sys.runMixed(mixedSpecs(in), opts.tracer, sp)
	} else {
		r.loop = sys.runClosed(opts.tracer, sp)
	}
	opts.tracer.end(sp)
	r.mem = memSince(m0)
	if r.loop.err != nil {
		return nil, fmt.Errorf("timed section: %w", r.loop.err)
	}

	// The query spread: a fixed number of the kinds' supported queries
	// against the flushed state — HTTP GETs where the workload's edge is
	// HTTP, Tenant calls otherwise. Each distinct query is checked against
	// the ground truth the first time it is answered.
	sp = opts.tracer.begin("queries", root, -1)
	r.queriesViaHTTP = opts.transport == overHTTP || open
	spread := sys.runSpread(specs, opts.transport == overHTTP, opts.tracer, sp)
	opts.tracer.end(sp)
	r.queries = spread.queryStats
	if open {
		r.queries = beside // the spread then only serves the checks
	}
	r.errOverEps = spread.errOverEps

	r.peakRSSKB = rss.peakKB()
	r.ingest, r.query = summarise(r.loop.ingestUS), summarise(r.queries.us)
	r.attempted = r.loop.records + beside.attempted + spread.attempted + spread.checked
	r.failed = r.loop.records - r.loop.accepted + beside.failed + spread.failed + spread.violations
	if open {
		// The open loop promises a rate; falling more than 1% short of it
		// over the sending phase is a failed run, counted as every record
		// failing. (The phase cannot be shorter than its schedule.)
		offered := float64(mixedRate * batchRecords)
		phase := max(r.loop.sending.Seconds(), float64(r.loop.records)/offered)
		if got := float64(r.loop.accepted) / phase; got < 0.99*offered {
			r.failed += r.loop.records
			r.broken = append(r.broken, fmt.Sprintf("achieved %.0f records/s, more than 1%% under the offered %.0f", got, offered))
		}
	}
	sys.account(r)
	var err error
	if r.scrape, err = sys.scrape(); err != nil {
		return nil, err
	}
	opts.tracer.end(root)
	return r, nil
}

// scrape reads the server's metrics plane, as GET /metrics would.
func (s *system) scrape() (scrape, error) {
	var buf bytes.Buffer
	if err := s.srv.Metrics().Expose(&buf); err != nil {
		return nil, err
	}
	return parseScrape(buf.Bytes()), nil
}

// cost is the timed section's wall and CPU time per accepted record.
func (r *report) cost() cost { return costOf(r.loop.wall, r.loop.cpu, r.loop.accepted) }

// account reads the counters the public stats surfaces expose and checks
// the exactly-once identities; a broken identity is fatal to the run.
func (s *system) account(r *report) {
	accepted := r.warm + r.loop.accepted
	var processed int64
	for i, t := range s.tenants {
		st := t.Stats()
		want := s.in.tenants[i].inPass * int64(s.in.passes)
		if st.Processed != want {
			r.broken = append(r.broken, fmt.Sprintf("tenant %s processed %d records, sent %d", st.Name, st.Processed, want))
		}
		if st.Dropped != 0 || st.Ties != 0 {
			r.broken = append(r.broken, fmt.Sprintf("tenant %s dropped %d, ties %d", st.Name, st.Dropped, st.Ties))
		}
		processed += st.Processed
		r.words += st.Words
		r.batches += st.Batches
	}
	if processed != accepted {
		r.broken = append(r.broken, fmt.Sprintf("processed %d != accepted %d", processed, accepted))
	}
	switch {
	case s.remote != nil:
		rs := s.remote.Stats()
		r.edgeBytes = float64(rs.BytesIn+rs.BytesOut) / float64(accepted)
		r.remote = remoteCounts{bytesIn: rs.BytesIn, bytesOut: rs.BytesOut, frames: rs.Frames}
		for _, node := range s.nodes {
			ns := node.Stats()
			r.remote.resent += ns.Resent
			if ns.Resent != 0 || ns.UpstreamReject != 0 {
				r.broken = append(r.broken, fmt.Sprintf("%s resent %d frames, upstream rejected %d", ns.Node, ns.Resent, ns.UpstreamReject))
			}
		}
	case r.transport == overHTTP:
		r.edgeBytes = float64(s.wire.Load()) / float64(accepted)
	default:
		// No socket to count on. An end-to-end metric may not read 0 (its
		// bound is a share of its median), so the in-process workloads report
		// what the call hands over per record: the Record value. It moves
		// only if the struct does.
		r.edgeBytes = float64(recordBytes)
	}
}
