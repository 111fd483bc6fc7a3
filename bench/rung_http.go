package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"
)

// viaHandler rewires a booted system so that each batch is a POST
// /v1/ingest served by Server.Handler() under httptest.NewRecorder: the
// service's own routing, instrumentation, JSON decode and response
// encoding, without net/http's connection handling or the socket.
func viaHandler(s *system) error {
	h := s.srv.Handler()
	s.sendName = "Handler POST /v1/ingest"
	s.send = func(_ int, b *batch) (int, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(b.body)))
		if rec.Code != http.StatusOK || !bytes.HasPrefix(rec.Body.Bytes(), acceptedAll) {
			return 0, nil
		}
		return len(b.recs), nil
	}
	s.flush = func() error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/flush", nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler POST /v1/flush: status %d", rec.Code)
		}
		return nil
	}
	return nil
}

// rungHTTP runs the two HTTP rungs beneath the loopback socket: the handler
// rung, and the generator's own encoding cost. loopback is the end-to-end
// (socket) rung, measured by the caller; its CPU includes the two clients'.
func rungHTTP(w *workload, seed int64, seconds float64, v values, service, loopback cost) (*report, error) {
	r, err := runE2E(w, seed, seconds, runOpts{transport: inproc, setups: 1, rewire: viaHandler})
	if err != nil {
		return nil, err
	}
	v["http.handler_ns_per_record"] = r.cost().wall
	v["http.decode_self_ns_per_record"] = r.cost().cpu - service.cpu
	v["http.socket_self_ns_per_record"] = loopback.cpu - r.cost().cpu

	var bodyBytes int
	var buf []byte
	t0 := time.Now()
	for _, b := range r.in.block {
		buf = encodeBody(buf[:0], b.recs)
		bodyBytes += len(buf)
	}
	encodeNS := float64(time.Since(t0).Nanoseconds()) / float64(r.in.blockRecords())
	v["gen.encode_ns_per_record"] = encodeNS
	v["http.body_bytes_per_record"] = float64(bodyBytes) / float64(r.in.blockRecords())
	return r, nil
}
