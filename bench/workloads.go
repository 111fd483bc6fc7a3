package main

import (
	"fmt"

	"disttrack/internal/service"
)

// transport is how the senders reach the service.
type transport int

const (
	inproc   transport = iota // Server.Ingest, no socket
	overHTTP                  // POST /v1/ingest over the loopback socket
	overTCP                   // SiteNode -> ServeRemote over the loopback socket
)

func (t transport) String() string {
	return [...]string{"in-process", "HTTP over loopback", "TCP site link over loopback"}[t]
}

const (
	batchRecords = 512     // records per ingest call, every workload
	valueDomain  = 1 << 20 // values are Zipf over [0, 2^20)
	valueSkew    = 1.2
	maxBlock     = 1 << 20 // pre-generated records; longer streams replay the block
	producers    = 2       // closed-loop senders; never more than nproc on the 2-core reference box
	mixedRate    = 200     // mixed_query: offered ingest batches per second (open loop)
	spreadRate   = 2500    // post-flush query spread: latency samples per budget-second (20,000 at 8 s)
	nodeSites    = 4       // tcp_sites: sites served by each site node
)

// workload is one named traffic mix. Work is a fixed record count: rate
// records for every second of the --seconds budget, calibrated once so the
// timed section lasts about that long on the 2-core reference machine. Fixed
// work keeps counts (words, bytes, escalations) and oracle answers
// comparable across commits; a faster commit finishes sooner instead of
// processing a different stream.
type workload struct {
	name      string
	why       string
	transport transport
	rate      int  // records per budget-second
	openLoop  bool // mixed_query: ingest on a schedule beside a query client
	tenants   func() []service.TenantConfig
}

func oneTenant(tc service.TenantConfig) func() []service.TenantConfig {
	return func() []service.TenantConfig { return []service.TenantConfig{tc} }
}

var (
	hhTenant   = service.TenantConfig{Name: "hh", Kind: service.KindHH, K: 8, Eps: 0.02}
	quanTenant = service.TenantConfig{Name: "quantile", Kind: service.KindQuantile, K: 8, Eps: 0.05, Phis: []float64{0.5, 0.99}}
	allqTenant = service.TenantConfig{Name: "allq", Kind: service.KindAllQ, K: 8, Eps: 0.05}
)

// manyTenants is 256 small tenants, kinds interleaved so every kind appears
// at every popularity rank: 128 hh, 64 quantile, 64 allq.
func manyTenants() []service.TenantConfig {
	out := make([]service.TenantConfig, 256)
	for i := range out {
		tc := service.TenantConfig{Name: fmt.Sprintf("t%03d", i), K: 4}
		switch i % 4 {
		case 0, 1:
			tc.Kind, tc.Eps = service.KindHH, 0.02
		case 2:
			tc.Kind, tc.Eps, tc.Phis = service.KindQuantile, 0.05, []float64{0.5, 0.99}
		case 3:
			tc.Kind, tc.Eps = service.KindAllQ, 0.05
		}
		out[i] = tc
	}
	return out
}

// workloads is the fixed set; names are final. The why strings are the ones
// BENCHMARK.json carries.
var workloads = []workload{
	{name: "hh_stream", transport: inproc, rate: 6_400_000, tenants: oneTenant(hhTenant),
		why: "one hh tenant in-process: shard hop, grouping and site channels dominate, the engine is a small share"},
	{name: "quantile_stream", transport: inproc, rate: 720_000, tenants: oneTenant(quanTenant),
		why: "one quantile tenant in-process: engine-bound round protocol and site stores, plus service-side perturbation"},
	{name: "allq_stream", transport: inproc, rate: 480_000, tenants: oneTenant(allqTenant),
		why: "one allq tenant in-process: the slowest kind, where tree and policy work shows and pipeline work does not"},
	{name: "http_ingest", transport: overHTTP, rate: 1_100_000, tenants: oneTenant(hhTenant),
		why: "hh tenant fed as JSON POST bodies over loopback: decode and net/http dominate, engine and pipeline work should not show"},
	{name: "tcp_sites", transport: overTCP, rate: 9_600_000, tenants: oneTenant(hhTenant),
		why: "two site nodes push raw values to the coordinator over loopback: the link whose bytes per record the paper's protocol should cut"},
	{name: "mixed_query", transport: inproc, rate: mixedRate * batchRecords, openLoop: true,
		tenants: func() []service.TenantConfig { return []service.TenantConfig{hhTenant, allqTenant} },
		why:     "open-loop ingest well under capacity beside one HTTP query client: query latency through the snapshot cache, Quiesce and ETags"},
	{name: "many_tenants", transport: inproc, rate: 1_000_000, tenants: manyTenants,
		why: "256 small tenants mixed in every batch: per-tenant overhead, grouping cost and memory instead of one big group"},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
