package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"disttrack/internal/service"
)

type queryKind int

const (
	qHeavy queryKind = iota
	qFreq
	qQuantile
	qRank
)

func (k queryKind) String() string {
	return [...]string{"heavy", "freq", "quantile", "rank"}[k]
}

// querySpec is one query against one tenant; the same spec is asked
// in-process (Tenant methods) or over HTTP.
type querySpec struct {
	tenant int
	kind   queryKind
	phi    float64 // heavy, quantile
	arg    uint64  // freq: item; rank: value
}

// answer is the union of the four response shapes.
type answer struct {
	entries []service.Entry
	value   uint64
	rank    int64
	count   int64
}

const hhPhi = 0.05 // heavy-hitter threshold asked of hh tenants (eps is 0.02)

// querySpecs lists the supported, checkable queries of every tenant, in
// tenant order: the query spread cycles through them.
func querySpecs(in *input) []querySpec {
	var out []querySpec
	for ti, tp := range in.tenants {
		small := len(in.tenants) > 2 // many_tenants: a short list per tenant
		switch tp.cfg.Kind {
		case service.KindHH:
			out = append(out, querySpec{tenant: ti, kind: qHeavy, phi: hhPhi})
			items := tp.truth.HeavyHitters(0.01)
			if small && len(items) > 2 {
				items = items[:2]
			}
			for _, x := range items {
				out = append(out, querySpec{tenant: ti, kind: qFreq, arg: x})
			}
			out = append(out, querySpec{tenant: ti, kind: qFreq, arg: valueDomain + 1}) // never ingested
		case service.KindQuantile:
			for _, phi := range tp.cfg.Phis {
				out = append(out, querySpec{tenant: ti, kind: qQuantile, phi: phi})
			}
		case service.KindAllQ:
			phis := []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}
			if small {
				phis = []float64{0.1, 0.5, 0.9}
			}
			for _, phi := range phis {
				out = append(out, querySpec{tenant: ti, kind: qQuantile, phi: phi})
				out = append(out, querySpec{tenant: ti, kind: qRank, arg: tp.truth.Quantile(phi)})
			}
		}
	}
	return out
}

// mixedSpecs is the query client's cycle on mixed_query: the four endpoints,
// heavy and freq on the hh tenant, quantile and rank on the allq tenant.
func mixedSpecs(in *input) []querySpec {
	top := in.tenants[0].truth.Quantile(0) // Zipf: the smallest value is the most frequent
	return []querySpec{
		{tenant: 0, kind: qHeavy, phi: hhPhi},
		{tenant: 0, kind: qFreq, arg: top},
		{tenant: 1, kind: qQuantile, phi: 0.5},
		{tenant: 1, kind: qRank, arg: in.tenants[1].truth.Quantile(0.5)},
	}
}

// ask answers q through the in-process Tenant API.
func (s *system) ask(q querySpec) (a answer, err error) {
	t := s.tenants[q.tenant]
	switch q.kind {
	case qHeavy:
		a.entries, err = t.HeavyHitters(q.phi)
	case qFreq:
		a.count, err = t.Frequency(q.arg)
	case qQuantile:
		a.value, err = t.Quantile(q.phi)
	case qRank:
		a.rank, _, err = t.Rank(q.arg)
	}
	return a, err
}

func (s *system) url(q querySpec) string {
	u := s.baseURL + "/v1/tenants/" + s.in.tenants[q.tenant].cfg.Name + "/" + q.kind.String()
	switch q.kind {
	case qHeavy, qQuantile:
		return u + "?phi=" + strconv.FormatFloat(q.phi, 'g', -1, 64)
	case qFreq:
		return u + "?item=" + strconv.FormatUint(q.arg, 10)
	default:
		return u + "?value=" + strconv.FormatUint(q.arg, 10)
	}
}

// get asks q with a GET over the loopback socket, conditional on ifNoneMatch
// when that is set, and returns the undecoded body: decoding is the load
// generator's work and stays outside the timed round trip.
func (s *system) get(c *http.Client, q querySpec, ifNoneMatch string) (body []byte, status int, etag string, err error) {
	req, err := http.NewRequest(http.MethodGet, s.url(q), nil)
	if err != nil {
		return nil, 0, "", err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, "", err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return body, resp.StatusCode, resp.Header.Get("ETag"), err
}

// decodeAnswer parses a 200 response body of q's endpoint.
func decodeAnswer(q querySpec, body []byte) (answer, error) {
	var decoded struct {
		Items []service.Entry `json:"items"`
		Value uint64          `json:"value"`
		Rank  int64           `json:"rank"`
		Count int64           `json:"count"`
	}
	if err := json.Unmarshal(body, &decoded); err != nil {
		return answer{}, fmt.Errorf("%s response: %w", q.kind, err)
	}
	a := answer{entries: decoded.Items, value: decoded.Value, rank: decoded.Rank, count: decoded.Count}
	if q.kind == qRank {
		a.value = 0 // the rank response echoes the queried value in "value"
	}
	return a, nil
}

// spreadStats is the query spread's outcome.
type spreadStats struct {
	queryStats
	checked    int64   // answers compared with the ground truth
	violations int64   // of which outside the tenant's ε guarantee
	errOverEps float64 // worst error seen, as a multiple of the allowed ε·n
}

// queryChunk is how many in-process queries make one latency sample. A
// cached Tenant query takes about 0.1 µs, less than reading the clock twice,
// so in-process queries are timed in chunks and a sample is the chunk's mean.
// At 128 the spread lasts 0.1-0.8 s; at 16 it was over in 20-100 ms, and its
// median said which of the machine's moods that instant fell in.
const queryChunk = 128

// runSpread takes the input's fixed number of query latency samples, cycling
// specs, one query at a time. Over HTTP each round trip is a sample;
// in-process, each chunk of queryChunk Tenant calls is. The state is flushed
// and frozen, so each distinct spec is checked against the ground truth once.
func (s *system) runSpread(specs []querySpec, viaHTTP bool, tr *tracer, parent int) spreadStats {
	var st spreadStats
	check := func(q querySpec, a answer, err error) {
		st.checked++
		bad, e := verify(s.in, q, a)
		if bad || err != nil {
			st.violations++
		}
		st.errOverEps = max(st.errOverEps, e)
	}
	if !viaHTTP {
		for _, q := range specs { // untimed: checking is the benchmark's work
			a, err := s.ask(q)
			check(q, a, err)
		}
		for i := 0; i < s.in.spread; i++ {
			sp := tr.begin("Tenant queries", parent, -1)
			t0 := time.Now()
			for j := i * queryChunk; j < (i+1)*queryChunk; j++ {
				if _, err := s.ask(specs[j%len(specs)]); err != nil {
					st.failed++
				}
			}
			st.us = append(st.us, float64(time.Since(t0).Nanoseconds())/1e3/queryChunk)
			tr.end(sp)
			st.attempted += queryChunk
		}
		return st
	}
	n := max(s.in.spread, len(specs))
	for i := 0; i < n; i++ {
		q := specs[i%len(specs)]
		sp := tr.begin("GET "+q.kind.String(), parent, -1)
		t0 := time.Now()
		body, status, _, err := s.get(s.clients[producers], q, "")
		st.us = append(st.us, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(sp)
		st.attempted++
		if err != nil || status != http.StatusOK {
			st.failed++
			continue
		}
		if i < len(specs) {
			a, err := decodeAnswer(q, body)
			check(q, a, err)
		}
	}
	return st
}
