package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	rt "disttrack/internal/runtime"
)

// siteBuffer is service.Config's default SiteBuffer: the rung runs the
// clusters as the service would.
const siteBuffer = 128

// rungRuntime is the second rung: the same per-site groups sent through one
// runtime.Cluster per tenant (SendBatch into the site channels, k site
// goroutines per tenant feeding the tracker), then Drain.
func rungRuntime(lad *ladderInput, v values, engine cost) (cost, error) {
	trackers, _, err := newTrackers(lad.in)
	if err != nil {
		return cost{}, err
	}
	before := runtime.NumGoroutine()
	clusters := make([]*rt.Cluster, len(trackers))
	for i, tr := range trackers {
		if clusters[i], err = rt.New(context.Background(), tr, tr.K(), siteBuffer); err != nil {
			for _, c := range clusters[:i] {
				c.Stop()
			}
			return cost{}, err
		}
	}
	v["runtime.goroutines_per_tenant"] = float64(runtime.NumGoroutine()-before) / float64(len(trackers))

	cpu0, t0 := cpuSeconds(), time.Now()
	for _, pass := range lad.keys {
		for gi, g := range lad.groups {
			// SendBatch takes ownership of the slice and recycles it, so the
			// sender copies into a pooled one, as the sharder does.
			xs := append(rt.GetBatch(len(pass[gi])), pass[gi]...)
			if err == nil {
				err = clusters[g.tenant].SendBatch(g.site, xs)
			}
		}
	}
	var processed int64
	for _, c := range clusters {
		c.Drain()
		processed += c.Stats().Processed
	}
	c := costOf(time.Since(t0), cpuSeconds()-cpu0, lad.in.totalRecords())
	if err != nil {
		return cost{}, fmt.Errorf("runtime rung: %w", err)
	}
	if processed != lad.in.totalRecords() {
		return cost{}, fmt.Errorf("runtime rung: clusters processed %d records, sent %d", processed, lad.in.totalRecords())
	}
	v["runtime.send_ns_per_record"] = c.wall
	v["runtime.self_ns_per_record"] = c.cpu - engine.cpu
	return c, nil
}
