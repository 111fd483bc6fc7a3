package main

import (
	"fmt"
	"math"
	"time"

	"disttrack/internal/core"
	"disttrack/internal/core/allq"
	"disttrack/internal/core/engine"
	"disttrack/internal/core/hh"
	"disttrack/internal/core/quantile"
	"disttrack/internal/obs"
	"disttrack/internal/service"
	"disttrack/internal/stream"
)

// cost is what one rung spent per record: wall-clock nanoseconds, and
// process CPU nanoseconds (user+system, every goroutine). The rungs differ
// in how many goroutines they run, so wall times do not subtract; CPU times
// do, and a layer's self time is the CPU its rung adds to the rung beneath.
type cost struct {
	wall, cpu float64
}

func costOf(wall time.Duration, cpuSec float64, records int64) cost {
	return cost{float64(wall.Nanoseconds()) / float64(records), cpuSec * 1e9 / float64(records)}
}

// group is one (tenant, site) run of values inside an ingest batch — what
// the sharder hands a tenant's cluster after grouping.
type group struct {
	tenant, site int
	vals         []uint64
}

// ladderInput is the workload's stream cut the way the layers beneath the
// service see it: per-site groups, with the service-side perturbation of
// quantile and allq values already applied (every pass needs fresh keys, so
// those are materialised per pass; hh groups are shared between passes).
type ladderInput struct {
	in     *input
	groups []group
	keys   [][][]uint64 // [pass][group]
}

func buildLadderInput(in *input) *ladderInput {
	lad := &ladderInput{in: in}
	index := map[string]int{}
	for i, tp := range in.tenants {
		index[tp.cfg.Name] = i
	}
	for _, b := range in.block {
		at := map[[2]int]int{}
		for _, r := range b.recs {
			k := [2]int{index[r.Tenant], r.Site}
			gi, ok := at[k]
			if !ok {
				gi = len(lad.groups)
				at[k] = gi
				lad.groups = append(lad.groups, group{tenant: k[0], site: k[1]})
			}
			lad.groups[gi].vals = append(lad.groups[gi].vals, r.Value)
		}
	}
	seq := make([]map[uint64]uint64, len(in.tenants))
	for i, tp := range in.tenants {
		if tp.cfg.Kind != service.KindHH {
			seq[i] = map[uint64]uint64{}
		}
	}
	lad.keys = make([][][]uint64, in.passes)
	for p := range lad.keys {
		lad.keys[p] = make([][]uint64, len(lad.groups))
		for gi, g := range lad.groups {
			s := seq[g.tenant]
			if s == nil {
				lad.keys[p][gi] = g.vals
				continue
			}
			ks := make([]uint64, len(g.vals))
			for i, v := range g.vals {
				ks[i] = v<<stream.PerturbBits | s[v]
				s[v]++
			}
			lad.keys[p][gi] = ks
		}
	}
	return lad
}

// newTrackers builds one core tracker per tenant, configured and
// instrumented as the service does it: the engine's full obs surface is
// attached (one shared set of counters), because its per-run atomic adds are
// part of what a tenant's records cost in the service.
func newTrackers(in *input) ([]core.Tracker, *engine.Metrics, error) {
	reg := obs.NewRegistry()
	counter := func(name string) *obs.Counter { return reg.NewCounter(name, name) }
	met := &engine.Metrics{
		Feeds: counter("feeds"), BatchRuns: counter("batch_runs"), BatchSplits: counter("batch_splits"),
		Escalations: counter("escalations"), SlowPathAcquires: counter("slow_path_acquires"),
		CoalescedRuns: counter("coalesced_runs"), SavedAcquires: counter("saved_acquires"),
		BootHandoffs: counter("boot_handoffs"),
		SlowPathHold: reg.NewHistogram("slow_path_hold", "slow_path_hold", obs.DurationBuckets()),
		QuiesceHold:  reg.NewHistogram("quiesce_hold", "quiesce_hold", obs.DurationBuckets()),
	}
	out := make([]core.Tracker, len(in.tenants))
	for i, tp := range in.tenants {
		var tr core.Tracker
		var err error
		switch tp.cfg.Kind {
		case service.KindHH:
			tr, err = hh.New(hh.Config{K: tp.cfg.K, Eps: tp.cfg.Eps})
		case service.KindQuantile:
			tr, err = quantile.New(quantile.Config{K: tp.cfg.K, Eps: tp.cfg.Eps, Phis: tp.cfg.Phis})
		case service.KindAllQ:
			tr, err = allq.New(allq.Config{K: tp.cfg.K, Eps: tp.cfg.Eps})
		}
		if err != nil {
			return nil, nil, fmt.Errorf("tracker for %s: %w", tp.cfg.Name, err)
		}
		tr.Meter().DisableKindBreakdown() // as the service does
		tr.SetMetrics(met)
		out[i] = tr
	}
	return out, met, nil
}

// rungEngine is the bottom rung: the stream fed straight into
// core.Tracker.FeedLocalBatch, one goroutine, per-site groups in stream
// order. Being sequential, its counts repeat exactly from run to run, which
// is why the wire.* and engine.* counts are taken here.
func rungEngine(lad *ladderInput, v values) (cost, error) {
	trackers, met, err := newTrackers(lad.in)
	if err != nil {
		return cost{}, err
	}
	cpu0, t0 := cpuSeconds(), time.Now()
	for _, pass := range lad.keys {
		for gi, g := range lad.groups {
			trackers[g.tenant].FeedLocalBatch(g.site, pass[gi])
		}
	}
	c := costOf(time.Since(t0), cpuSeconds()-cpu0, lad.in.totalRecords())

	records := float64(lad.in.totalRecords())
	var fed, msgs, words int64
	var rounds, space int
	var bound float64
	for i, tr := range trackers {
		fed += tr.TrueTotal()
		m := tr.Meter().Total()
		msgs, words = msgs+m.Msgs, words+m.Words
		rounds += tr.Rounds()
		for j := 0; j < tr.K(); j++ {
			space += tr.SiteSpace(j)
		}
		n := float64(lad.in.tenants[i].inPass) * float64(lad.in.passes)
		bound += float64(tr.K()) / tr.Eps() * math.Log2(max(n, 2))
	}
	if fed != lad.in.totalRecords() {
		return cost{}, fmt.Errorf("engine rung: trackers hold %d records, fed %d", fed, lad.in.totalRecords())
	}
	v["engine.feed_ns_per_record"] = c.wall
	v["engine.escalations_per_krecord"] = float64(met.Escalations.Value()) / records * 1e3
	v["engine.slow_path_acquires_per_krecord"] = float64(met.SlowPathAcquires.Value()) / records * 1e3
	v["engine.coalesced_runs"] = float64(met.CoalescedRuns.Value())
	v["engine.rounds"] = float64(rounds)
	v["engine.site_space_entries"] = float64(space)
	v["wire.words_per_record_seq"] = float64(words) / records
	v["wire.msgs_per_record_seq"] = float64(msgs) / records
	v["wire.bound_ratio"] = float64(words) / bound
	return c, nil
}
