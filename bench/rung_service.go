package main

// rungService is the third rung and the top in-process one: the workload's
// records through Server.Ingest from the two closed-loop producers, then
// Flush — for the in-process workloads this is the end-to-end run itself,
// at the ladder's size. The CPU it adds to the runtime rung is the sharder's
// self time (validation, shard hop, grouping, perturbation).
func rungService(w *workload, seed int64, seconds float64, v values, runtime cost) (*report, error) {
	r, err := runE2E(w, seed, seconds, runOpts{transport: inproc, setups: 1, closedLoop: true})
	if err != nil {
		return nil, err
	}
	v["service.ingest_ns_per_record"] = r.cost().wall
	v["service.self_ns_per_record"] = r.cost().cpu - runtime.cpu
	v["service.ingest_blocked_share"] = r.loop.busy.Seconds() / (r.loop.wall.Seconds() * producers)
	v["service.flush_wait_ms"] = float64(r.loop.flushWait.Microseconds()) / 1e3
	v["service.groups_per_batch"] = float64(r.batches) / float64(r.in.totalBatches())
	v["service.tenant_create_us"] = r.createUS
	v["service.rss_kb_per_tenant"] = r.rssKBPerTenant
	return r, nil
}
