package main

import (
	"fmt"
	"io"
	"slices"
	"time"
)

// traceDivisor scales the traced run down: it replays the workload several
// times (once per rung, then untraced and traced end to end), each at
// 1/traceDivisor of the end-to-end run's records, so that the whole ladder
// costs about what one end-to-end run does.
const traceDivisor = 4

// runTraced is the --trace 1 run. It does two things. (a) The rung ladder:
// the workload's records enter the system at each layer boundary in turn —
// core.Tracker.FeedLocalBatch, runtime.Cluster.SendBatch, Server.Ingest,
// then the workload's own edge (the HTTP handler and the loopback socket, or
// NodeClient.SendBatch and SiteNode.Ingest) — and a layer's self time is the
// CPU per record its rung adds to the rung beneath it. (b) The end-to-end
// workload once more with a span around every public call the driver makes,
// written to trace-<workload>.json in outDir; set against the same run
// without spans, that gives the tracing overhead. Counts come from public
// surfaces only.
func runTraced(w *workload, seed int64, seconds float64, outDir string, stdout io.Writer) (outcome, runInfo, error) {
	fail := func(err error) (outcome, runInfo, error) { return outcome{}, runInfo{}, err }
	sec := seconds / traceDivisor
	v := values{}
	var attempted, failed int64
	var broken []string
	count := func(r *report) {
		attempted, failed = attempted+r.attempted, failed+r.failed
		broken = append(broken, r.broken...)
		v["oracle.err_over_eps_max"] = max(v["oracle.err_over_eps_max"], r.errOverEps)
	}

	lad := buildLadderInput(generate(w, seed, sec))
	engine, err := rungEngine(lad, v)
	if err != nil {
		return fail(err)
	}
	runtime, err := rungRuntime(lad, v, engine)
	if err != nil {
		return fail(err)
	}
	lad = nil
	svc, err := rungService(w, seed, sec, v, runtime)
	if err != nil {
		return fail(err)
	}
	count(svc)

	// The workload end to end, untraced then traced. For the in-process
	// closed-loop workloads the untraced run is the service rung itself.
	plain := svc
	if w.transport != inproc || w.openLoop {
		if plain, err = runE2E(w, seed, sec, runOpts{transport: w.transport, setups: 1}); err != nil {
			return fail(err)
		}
		count(plain)
	}
	tr := newTracer(plain.in.totalBatches() + plain.in.spread + 64)
	traced, err := runE2E(w, seed, sec, runOpts{transport: w.transport, setups: 1, tracer: tr})
	if err != nil {
		return fail(err)
	}
	count(traced)
	path, err := tr.write(outDir, w.name)
	if err != nil {
		return fail(err)
	}
	v["trace.overhead_share"] = traced.loop.wall.Seconds()/plain.loop.wall.Seconds() - 1

	records := float64(plain.loop.accepted)
	v["gc.allocs_per_record"] = float64(plain.mem.mallocs) / records
	v["gc.alloc_bytes_per_record"] = float64(plain.mem.bytes) / records
	v["gc.pause_total_ms"] = float64(plain.mem.pauseNs) / 1e6
	v["gc.cycles"] = float64(plain.mem.cycles)
	for name, value := range plain.latencyValues() {
		v[name] = value
	}

	// The workload's own edge.
	switch {
	case w.transport == overHTTP:
		r, err := rungHTTP(w, seed, sec, v, svc.cost(), plain.cost())
		if err != nil {
			return fail(err)
		}
		count(r)
	case w.transport == overTCP:
		total := float64(plain.warm + plain.loop.accepted)
		v["sitenode.ingest_ns_per_record"] = plain.cost().wall
		v["remote.bytes_up_per_record"] = float64(plain.remote.bytesIn) / total
		v["remote.bytes_down_per_record"] = float64(plain.remote.bytesOut) / total
		v["remote.frames_per_krecord"] = float64(plain.remote.frames) / total * 1e3
		v["remote.resent_frames"] = float64(plain.remote.resent)
		r, err := rungRemote(w, seed, sec, v, runtime, plain.cost())
		if err != nil {
			return fail(err)
		}
		count(r)
	case w.openLoop:
		late := slices.Clone(plain.loop.lateMS)
		slices.Sort(late)
		v["gen.lateness_p99_ms"] = quantileOf(late, 0.99)
		v["query.http_us"] = median(plain.queries.us200)
		v["query.http_304_us"] = median(plain.queries.us304)
		hits, misses := plain.scrape["disttrack_query_cache_hits_total"], plain.scrape["disttrack_query_cache_misses_total"]
		if hits+misses > 0 {
			v["query.cache_hit_ratio"] = hits / (hits + misses)
		}
		v["query.version_changes_per_s"] = plain.scrape["disttrack_engine_escalations_total"] / plain.loop.wall.Seconds()
		if err := rungQuery(w, seed, sec, v); err != nil {
			return fail(err)
		}
	case w.name == "hh_stream":
		if err := rungDurable(w, seed, sec, v, svc.cost()); err != nil {
			return fail(err)
		}
	}

	info := plain.info()
	printHeader(stdout, w, info)
	fmt.Fprintf(stdout, "  traced run: every rung replays %d records (1/%d of the end-to-end run); a metric of a layer this workload does not exercise reads 0\n",
		plain.in.totalRecords(), traceDivisor)
	printValues(stdout, perLayer, v, nil)
	printSpans(stdout, tr, path)
	printOps(stdout, attempted, failed, broken)
	return newOutcome(perLayer, v, attempted, failed, broken), info, nil
}

// printSpans summarises the trace per span name: how many, their total
// duration, and their self time.
func printSpans(w io.Writer, tr *tracer, path string) {
	type row struct {
		name  string
		n     int
		total time.Duration
	}
	byName := map[string]*row{}
	var rows []*row
	for _, s := range tr.spans {
		r := byName[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			byName[s.Name] = r
			rows = append(rows, r)
		}
		r.n++
		r.total += time.Duration(s.End - s.Start)
	}
	self := tr.selfTimes()
	fmt.Fprintf(w, "  spans written to %s:\n", path)
	for _, r := range rows {
		fmt.Fprintf(w, "    %-28s x%-7d total %12v  self %12v\n", r.name, r.n, r.total, self[r.name])
	}
}
