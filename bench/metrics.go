package main

// metric is one named number with its unit.
type metric struct {
	name, unit string
}

// endToEnd is the list BENCHMARK.json declares under end_to_end, in order.
// Every workload reports every one with --trace 0.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"records_per_s", "records/s"},
	{"cpu_s_per_mrecord", "s"},
	{"words_per_record", "words"},
	{"edge_bytes_per_record", "bytes"},
	{"peak_rss_mb", "MiB"},
}

// latency is the tail of the per-layer list: the percentiles of the two
// latency series every run measures. They are not end-to-end metrics because
// they do not repeat within any admissible bound on the reference machine
// (README.md, "Why no latency is bounded"); the end-to-end run prints them
// all the same.
var latency = []metric{
	{"ingest.p50_us", "us"},
	{"ingest.p90_us", "us"},
	{"ingest.p99_us", "us"},
	{"query.p50_us", "us"},
	{"query.p90_us", "us"},
	{"query.p99_us", "us"},
}

// perLayer is the list BENCHMARK.json declares under per_layer, in order.
// Every workload reports every one with --trace 1; a metric whose layer the
// workload does not exercise reads 0.
var perLayer = append([]metric{
	{"engine.feed_ns_per_record", "ns"},
	{"engine.escalations_per_krecord", "count"},
	{"engine.slow_path_acquires_per_krecord", "count"},
	{"engine.coalesced_runs", "count"},
	{"engine.rounds", "count"},
	{"engine.site_space_entries", "count"},
	{"wire.words_per_record_seq", "words"},
	{"wire.msgs_per_record_seq", "count"},
	{"wire.bound_ratio", "ratio"},
	{"runtime.send_ns_per_record", "ns"},
	{"runtime.self_ns_per_record", "ns"},
	{"runtime.goroutines_per_tenant", "count"},
	{"service.ingest_ns_per_record", "ns"},
	{"service.self_ns_per_record", "ns"},
	{"service.ingest_blocked_share", "ratio"},
	{"service.flush_wait_ms", "ms"},
	{"service.groups_per_batch", "count"},
	{"service.tenant_create_us", "us"},
	{"service.rss_kb_per_tenant", "KiB"},
	{"http.handler_ns_per_record", "ns"},
	{"http.decode_self_ns_per_record", "ns"},
	{"http.socket_self_ns_per_record", "ns"},
	{"http.body_bytes_per_record", "bytes"},
	{"gen.encode_ns_per_record", "ns"},
	{"remote.sendbatch_ns_per_record", "ns"},
	{"remote.self_ns_per_record", "ns"},
	{"sitenode.ingest_ns_per_record", "ns"},
	{"sitenode.forwarder_self_ns_per_record", "ns"},
	{"remote.bytes_up_per_record", "bytes"},
	{"remote.bytes_down_per_record", "bytes"},
	{"remote.frames_per_krecord", "count"},
	{"remote.resent_frames", "count"},
	{"query.cold_us", "us"},
	{"query.cached_us", "us"},
	{"query.http_us", "us"},
	{"query.http_304_us", "us"},
	{"query.cache_hit_ratio", "ratio"},
	{"query.version_changes_per_s", "1/s"},
	{"durable.wal_self_ns_per_record", "ns"},
	{"durable.wal_bytes_per_record", "bytes"},
	{"durable.recover_ms", "ms"},
	{"gc.allocs_per_record", "count"},
	{"gc.alloc_bytes_per_record", "bytes"},
	{"gc.pause_total_ms", "ms"},
	{"gc.cycles", "count"},
	{"gen.lateness_p99_ms", "ms"},
	{"trace.overhead_share", "ratio"},
	{"oracle.err_over_eps_max", "ratio"},
}, latency...)

// values maps metric names to measured values.
type values map[string]float64

// latencyValues reduces a report's two latency series to the latency
// metrics.
func (r *report) latencyValues() values {
	return values{
		"ingest.p50_us": r.ingest.p50, "ingest.p90_us": r.ingest.p90, "ingest.p99_us": r.ingest.p99,
		"query.p50_us": r.query.p50, "query.p90_us": r.query.p90, "query.p99_us": r.query.p99,
	}
}

// endToEndValues reduces a report to the end-to-end metrics.
func (r *report) endToEndValues() values {
	timed := float64(r.loop.accepted)
	total := float64(r.warm + r.loop.accepted)
	return values{
		"setup_s":               median(r.setupS),
		"records_per_s":         timed / r.loop.wall.Seconds(),
		"cpu_s_per_mrecord":     r.loop.cpu / (timed / 1e6),
		"words_per_record":      float64(r.words) / total,
		"edge_bytes_per_record": r.edgeBytes,
		"peak_rss_mb":           float64(r.peakRSSKB) / 1024,
	}
}
