package main

import (
	"strconv"
	"unsafe"

	"disttrack/internal/oracle"
	"disttrack/internal/service"
	"disttrack/internal/stream"
)

// recordBytes is the in-memory size of one service.Record.
const recordBytes = int64(unsafe.Sizeof(service.Record{}))

// batch is one ingest call's worth of records, in the shapes the senders
// need: the record slice for in-process and site-node senders, the encoded
// JSON request body for the HTTP sender.
type batch struct {
	recs []service.Record
	body []byte
}

// tenantPlan is one tenant of the workload with the ground truth of its
// share of the block.
type tenantPlan struct {
	cfg    service.TenantConfig
	truth  *oracle.Oracle // exact state of this tenant's records in ONE pass over the block
	inPass int64          // records of this tenant in one pass
}

// input is everything a run feeds the system, generated from the seed alone.
// The stream is the block replayed passes times; ground truth is kept for
// one pass and scaled (counts and ranks by passes, rank errors not at all).
type input struct {
	w       *workload
	tenants []tenantPlan
	block   []batch
	passes  int
	warm    int // leading batches ingested during set-up, not timed
	spread  int // latency samples in the post-flush query spread
}

func (in *input) blockRecords() int { return len(in.block) * batchRecords }
func (in *input) totalBatches() int { return len(in.block) * in.passes }
func (in *input) totalRecords() int64 {
	return int64(in.blockRecords()) * int64(in.passes)
}

// blockBytes is the memory the pre-generated block pins for the whole run;
// it is reported beside peak_rss_mb.
func (in *input) blockBytes() int64 {
	var n int64
	for _, b := range in.block {
		n += int64(len(b.recs))*recordBytes + int64(len(b.body))
	}
	return n
}

// generate builds the workload's input for a budget of the given seconds.
// The same seed gives the same records in the same order.
func generate(w *workload, seed int64, seconds float64) *input {
	total := int(float64(w.rate) * seconds)
	nBatches := max(total/batchRecords, 4)
	const maxBatches = maxBlock / batchRecords
	in := &input{w: w, passes: (nBatches + maxBatches - 1) / maxBatches}
	blockBatches := (nBatches / in.passes) &^ 1 // even: the producers alternate batches
	in.warm = min(8, blockBatches/2)            // at least two: one per tenant of mixed_query
	in.spread = max(int(spreadRate*seconds), 200)

	cfgs := w.tenants()
	in.tenants = make([]tenantPlan, len(cfgs))
	for i, tc := range cfgs {
		in.tenants[i] = tenantPlan{cfg: tc, truth: oracle.New()}
	}

	n := blockBatches * batchRecords
	values := stream.Zipf(valueDomain, int64(n), valueSkew, seed)
	var pick stream.Generator // tenant popularity, many_tenants only
	if len(cfgs) > 2 {
		pick = stream.Zipf(int64(len(cfgs)), int64(n), 1.1, seed^0x5eed)
	}
	in.block = make([]batch, blockBatches)
	for b := range in.block {
		recs := make([]service.Record, batchRecords)
		for j := range recs {
			v, _ := values.Next()
			i := b*batchRecords + j
			ti := 0
			switch {
			case pick != nil:
				p, _ := pick.Next()
				ti = int(p)
				if i < len(cfgs) {
					ti = i // every tenant sees at least one record, so no query meets an empty tenant
				}
			case len(cfgs) == 2:
				ti = b % 2 // mixed_query: batches alternate between the two tenants
			}
			tp := &in.tenants[ti]
			site := i % tp.cfg.K
			if w.transport == overTCP {
				// Producer p (batches p, p+producers, ...) is site node p and
				// owns sites [p*nodeSites, (p+1)*nodeSites).
				site = (b%producers)*nodeSites + j%nodeSites
			}
			recs[j] = service.Record{Tenant: tp.cfg.Name, Site: site, Value: v}
			tp.truth.Add(v)
			tp.inPass++
		}
		in.block[b].recs = recs
		if w.transport == overHTTP {
			in.block[b].body = encodeBody(nil, recs)
		}
	}
	return in
}

// encodeBody appends the POST /v1/ingest request body for recs. Hand-rolled
// so the load generator is not the bottleneck it measures; the smoke test
// checks it against encoding/json.
func encodeBody(dst []byte, recs []service.Record) []byte {
	dst = append(dst, `{"records":[`...)
	for i, r := range recs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"tenant":`...)
		dst = strconv.AppendQuote(dst, r.Tenant)
		dst = append(dst, `,"site":`...)
		dst = strconv.AppendInt(dst, int64(r.Site), 10)
		dst = append(dst, `,"value":`...)
		dst = strconv.AppendUint(dst, r.Value, 10)
		dst = append(dst, '}')
	}
	return append(dst, `]}`...)
}
