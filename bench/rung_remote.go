package main

import (
	"disttrack/internal/remote"
	rt "disttrack/internal/runtime"
)

// forwarderBatch is runtime.ForwarderConfig's default BatchSize: the rung
// sends frames of the size the site node's forwarder would.
const forwarderBatch = 256

// viaNodeClient rewires a system booted for the TCP transport so that each
// producer is a bare remote.NodeClient: records are grouped per site and
// shipped with SendBatch in forwarder-sized frames, skipping
// SiteNode.Ingest and runtime.Forwarder. The difference to the SiteNode rung
// is what those two cost.
func viaNodeClient(s *system) error {
	tenant := s.in.tenants[0].cfg.Name
	clients := make([]*remote.NodeClient, producers)
	bufs := make([][][]uint64, producers) // [producer][site] pending values
	for p := range clients {
		cl, err := remote.DialNode(s.remote.Addr(), remote.NodeConfig{Node: "bare" + string(rune('0'+p))})
		if err != nil {
			return err
		}
		clients[p] = cl
		s.extraClose = append(s.extraClose, func() { cl.Close() })
		bufs[p] = make([][]uint64, s.in.tenants[0].cfg.K)
	}
	ship := func(p, site int) error {
		vals := bufs[p][site]
		bufs[p][site] = nil
		return clients[p].SendBatch(tenant, site, remote.TKindUnknown, vals)
	}
	s.sendName = "NodeClient.SendBatch"
	s.send = func(p int, b *batch) (int, error) {
		for _, r := range b.recs {
			if bufs[p][r.Site] == nil {
				bufs[p][r.Site] = rt.GetBatch(forwarderBatch)
			}
			bufs[p][r.Site] = append(bufs[p][r.Site], r.Value)
			if len(bufs[p][r.Site]) >= forwarderBatch {
				if err := ship(p, r.Site); err != nil {
					return 0, err
				}
			}
		}
		return len(b.recs), nil
	}
	s.flush = func() error {
		for p, cl := range clients {
			for site, vals := range bufs[p] {
				if len(vals) > 0 {
					if err := ship(p, site); err != nil {
						return err
					}
				}
			}
			if err := cl.Flush(); err != nil {
				return err
			}
		}
		return nil
	}
	return nil
}

// rungRemote runs the rung beneath the site node on the TCP link. sitenode is
// the end-to-end (SiteNode) rung, measured by the caller. Frames enter the
// coordinator pre-grouped (the sharder's IngestGrouped path, which has no
// public entry of its own), so the rung beneath this one is the runtime
// rung, not the Server.Ingest rung.
func rungRemote(w *workload, seed int64, seconds float64, v values, runtime, sitenode cost) (*report, error) {
	r, err := runE2E(w, seed, seconds, runOpts{transport: overTCP, setups: 1, rewire: viaNodeClient})
	if err != nil {
		return nil, err
	}
	v["remote.sendbatch_ns_per_record"] = r.cost().wall
	v["remote.self_ns_per_record"] = r.cost().cpu - runtime.cpu
	v["sitenode.forwarder_self_ns_per_record"] = sitenode.cpu - r.cost().cpu
	return r, nil
}
