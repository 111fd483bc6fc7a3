package main

import (
	"fmt"
	"slices"
	"time"

	"disttrack/internal/service"
)

// rungQuery prices the two in-process query paths of a loaded hh tenant: a
// heavy-hitter query answered from the version-keyed snapshot cache, and the
// first one after the coordinator version changed, which has to quiesce the
// tenant and recompute.
func rungQuery(w *workload, seed int64, seconds float64, v values) error {
	in := generate(w, seed, seconds)
	sys, err := boot(in, inproc, service.Config{})
	if err != nil {
		return err
	}
	defer sys.close()
	if _, err := sys.warmUp(); err != nil {
		return err
	}
	if st := sys.runClosed(nil, -1); st.err != nil {
		return st.err
	}
	hh := querySpec{tenant: 0, kind: qHeavy, phi: hhPhi}
	timeAsk := func() (float64, error) {
		t0 := time.Now()
		_, err := sys.ask(hh)
		return float64(time.Since(t0).Nanoseconds()) / 1e3, err
	}
	var cached, cold []float64
	for i := 0; i < 2000; i++ {
		us, err := timeAsk()
		if err != nil {
			return fmt.Errorf("query rung: %w", err)
		}
		cached = append(cached, us)
	}
	// Every escalation ticks the version, and 512 more records usually bring
	// at least one; the cache-miss counter says how many of the queries below
	// really were cold, and those are the slowest ones.
	before, err := sys.scrape()
	if err != nil {
		return err
	}
	for i := 0; i < 200; i++ {
		b := &in.block[(2*i)%len(in.block)] // even batches belong to the hh tenant
		if _, err := sys.send(0, b); err != nil {
			return err
		}
		if err := sys.flush(); err != nil {
			return err
		}
		us, err := timeAsk()
		if err != nil {
			return fmt.Errorf("query rung: %w", err)
		}
		cold = append(cold, us)
	}
	after, err := sys.scrape()
	if err != nil {
		return err
	}
	const misses = "disttrack_query_cache_misses_total"
	n := min(max(int(after[misses]-before[misses]), 1), len(cold))
	slices.Sort(cold)
	v["query.cached_us"] = median(cached)
	v["query.cold_us"] = median(cold[len(cold)-n:])
	return nil
}
