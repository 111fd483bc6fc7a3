package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Error codes returned in the JSON error body (see docs/service.md).
const (
	codeInvalid     = "invalid_argument"
	codeNotFound    = "not_found"
	codeExists      = "already_exists"
	codeUnsupported = "unsupported"
	codeNoData      = "no_data"
	codeClosing     = "shutting_down"
	codeThrottled   = "rate_limited"
	codeTooLarge    = "too_large"
)

type errBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errBody{Error: msg, Code: code})
}

// writeQueryErr maps a tenant query error onto its HTTP status by sentinel:
// the tenant's checks encode kind capability (ErrUnsupported) and data
// availability (ErrNoData), so the handler never switches on kind.
func writeQueryErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnsupported):
		writeErr(w, http.StatusUnprocessableEntity, codeUnsupported, err.Error())
	case errors.Is(err, ErrNoData):
		writeErr(w, http.StatusConflict, codeNoData, err.Error())
	default:
		writeErr(w, http.StatusBadRequest, codeInvalid, err.Error())
	}
}

// newMux wires the HTTP API onto a fresh ServeMux.
func newMux(s *Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.met.reg.Handler())
	mux.HandleFunc("GET /v1/tenants", s.handleListTenants)
	mux.HandleFunc("POST /v1/tenants", s.handleCreateTenant)
	mux.HandleFunc("GET /v1/tenants/{name}", s.handleTenantStats)
	mux.HandleFunc("DELETE /v1/tenants/{name}", s.handleDeleteTenant)
	mux.HandleFunc("GET /v1/tenants/{name}/heavy", s.handleQuery(shapeHeavy))
	mux.HandleFunc("GET /v1/tenants/{name}/quantile", s.handleQuery(shapeQuantile))
	mux.HandleFunc("GET /v1/tenants/{name}/rank", s.handleQuery(shapeRank))
	mux.HandleFunc("GET /v1/tenants/{name}/freq", s.handleQuery(shapeFreq))
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("POST /v1/flush", s.handleFlush)
	mux.HandleFunc("GET /v1/remote", s.handleRemote)
	mux.HandleFunc("POST /v1/admin/membership", s.handleMembership)
	return mux
}

// handleMembership applies a live site add/remove: resize the named
// tenant's site set to k. The engine restarts the tenant's protocol round
// over the new set (a shrink folds the removed sites' counts into site 0),
// and the membership epoch bumps so the node fleet re-handshakes.
func (s *Server) handleMembership(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		writeErr(w, http.StatusServiceUnavailable, codeClosing, "server shutting down")
		return
	}
	var req struct {
		Tenant string `json:"tenant"`
		K      int    `json:"k"`
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalid, "bad membership request: "+err.Error())
		return
	}
	if req.Tenant == "" {
		writeErr(w, http.StatusBadRequest, codeInvalid, "missing tenant")
		return
	}
	if s.reg.Get(req.Tenant) == nil {
		writeErr(w, http.StatusNotFound, codeNotFound, "tenant "+strconv.Quote(req.Tenant)+" not found")
		return
	}
	if err := s.ReconfigureTenant(req.Tenant, req.K); err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalid, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"tenant": req.Tenant, "k": req.K, "epoch": s.epoch.Load(),
	})
}

// handleRemote serves the networked ingest path's stats (coord role only).
func (s *Server) handleRemote(w http.ResponseWriter, r *http.Request) {
	ri := s.remote.Load()
	if ri == nil {
		writeErr(w, http.StatusNotFound, codeUnsupported, "remote ingest not serving")
		return
	}
	writeJSON(w, http.StatusOK, ri.Stats())
}

// tenantQoS is one tenant's admission status in the health payload.
type tenantQoS struct {
	RateLimit  float64 `json:"rate_limit,omitempty"`
	QueueShare int     `json:"queue_share,omitempty"`
	Throttled  int64   `json:"throttled"`
	Queued     int64   `json:"queued"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	version, goVersion := buildMeta()
	body := map[string]any{
		"ok":             !s.closing.Load(),
		"tenants":        s.reg.Count(),
		"accepted":       s.ing.Accepted(),
		"rejected":       s.ing.Rejected(),
		"throttled":      s.ing.Throttled(),
		"lost":           s.ing.Lost(),
		"uptime_seconds": time.Since(s.met.start).Seconds(),
		"version":        version,
		"go":             goVersion,
	}
	// Per-tenant throttle status, for tenants with QoS configured (the
	// common unlimited tenant would only bloat the payload).
	qos := map[string]tenantQoS{}
	for _, t := range s.reg.all() {
		if !t.limited {
			continue
		}
		qos[t.cfg.Name] = tenantQoS{
			RateLimit:  t.cfg.RateLimit,
			QueueShare: t.cfg.QueueShare,
			Throttled:  t.throttled.Load(),
			Queued:     t.backlog(),
		}
	}
	if len(qos) > 0 {
		body["tenant_qos"] = qos
	}
	// Durable plane status (only with a data directory configured).
	if ds := s.durabilityStatus(); ds != nil {
		body["durability"] = ds
	}
	body["membership"] = s.membershipStatus()
	// Coordinator role: per-site-node connection and breaker state. The
	// service is degraded — still serving, from last-known site state —
	// when a node it has heard from is not currently connected.
	if ri := s.remote.Load(); ri != nil {
		nodes := ri.srv.NodeStates()
		body["remote_nodes"] = nodes
		body["degraded"] = degraded(nodes)
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleListTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tenants": s.reg.List()})
}

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		writeErr(w, http.StatusServiceUnavailable, codeClosing, "server shutting down")
		return
	}
	var tc TenantConfig
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tc); err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalid, "bad tenant config: "+err.Error())
		return
	}
	t, err := s.reg.Create(tc)
	if err != nil {
		if errors.Is(err, ErrExists) {
			writeErr(w, http.StatusConflict, codeExists, err.Error())
		} else {
			writeErr(w, http.StatusBadRequest, codeInvalid, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusCreated, t.Config())
}

// tenant resolves the {name} path segment, writing a 404 on miss.
func (s *Server) tenant(w http.ResponseWriter, r *http.Request) *Tenant {
	name := r.PathValue("name")
	t := s.reg.Get(name)
	if t == nil {
		writeErr(w, http.StatusNotFound, codeNotFound, "tenant "+strconv.Quote(name)+" not found")
	}
	return t
}

func (s *Server) handleTenantStats(w http.ResponseWriter, r *http.Request) {
	t := s.tenant(w, r)
	if t == nil {
		return
	}
	writeJSON(w, http.StatusOK, t.Stats())
}

func (s *Server) handleDeleteTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	drain := r.URL.Query().Get("drain") != "false"
	if !s.reg.Delete(name, drain) {
		writeErr(w, http.StatusNotFound, codeNotFound, "tenant "+strconv.Quote(name)+" not found")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name, "drained": drain})
}

// etagMatches reports whether an If-None-Match header value matches etag:
// "*" matches anything, otherwise the comma-separated list is compared
// entry by entry (weak validators compare by opaque tag — a W/ prefix is
// ignored, which is safe here because the version ETag is strong).
func etagMatches(header, etag string) bool {
	for _, f := range strings.Split(header, ",") {
		f = strings.TrimSpace(f)
		if f == "*" || f == etag || strings.TrimPrefix(f, "W/") == etag {
			return true
		}
	}
	return false
}

// notModified implements the query endpoints' conditional-GET fast path: if
// the client's If-None-Match still names the tenant's current coordinator
// version, the representation it holds cannot have changed (coordinator
// state changes only on escalations, which tick the version), so a 304 is
// served with no quiescent read, no snapshot-cache lookup and no body. The
// precondition applies only to a query that would otherwise succeed (RFC
// 9110 §13.2.1): one that fails q's checks answers its own status instead.
// Extends the version-keyed snapshot cache across the HTTP boundary; see
// docs/service.md.
func notModified(w http.ResponseWriter, r *http.Request, t *Tenant, q query) bool {
	inm := r.Header.Get("If-None-Match")
	if inm == "" || t.check(q) != nil {
		return false
	}
	etag := t.etag()
	if !etagMatches(inm, etag) {
		return false
	}
	t.countETag()
	w.Header().Set("ETag", etag)
	w.WriteHeader(http.StatusNotModified)
	return true
}

// queryParams names each shape's one required URL parameter: a φ for heavy
// and quantile, an unsigned integer for rank and freq.
var queryParams = [nShapes]string{"phi", "phi", "value", "item"}

// handleQuery serves the query endpoint of shape sh.
func (s *Server) handleQuery(sh shape) http.HandlerFunc {
	param := queryParams[sh]
	return func(w http.ResponseWriter, r *http.Request) {
		t := s.tenant(w, r)
		if t == nil {
			return
		}
		raw := r.URL.Query().Get(param)
		if raw == "" {
			writeErr(w, http.StatusBadRequest, codeInvalid, "missing "+param+" parameter")
			return
		}
		q := query{shape: sh}
		var err error
		if param == "phi" {
			q.phi, err = strconv.ParseFloat(raw, 64)
		} else {
			q.x, err = strconv.ParseUint(raw, 10, 64)
		}
		if err != nil {
			writeErr(w, http.StatusBadRequest, codeInvalid, "bad "+param+": "+err.Error())
			return
		}
		if notModified(w, r, t, q) {
			return
		}
		a, err := t.ask(q)
		if err != nil {
			writeQueryErr(w, err)
			return
		}
		var body map[string]any
		switch sh {
		case shapeHeavy:
			items := a.entries
			if items == nil {
				items = []Entry{}
			}
			body = map[string]any{"phi": q.phi, "items": items}
		case shapeQuantile:
			body = map[string]any{"phi": q.phi, "value": a.value}
		case shapeRank:
			body = map[string]any{"value": q.x, "rank": a.count, "total": a.total}
		case shapeFreq:
			body = map[string]any{"item": q.x, "count": a.count}
		}
		w.Header().Set("ETag", t.etagFor(a.ver))
		writeJSON(w, http.StatusOK, body)
	}
}

// ingestRequest is the batch wire format: an array of records.
type ingestRequest struct {
	Records []Record `json:"records"`
}

type ingestResponse struct {
	Accepted int           `json:"accepted"`
	Rejected []RecordError `json:"rejected,omitempty"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		writeErr(w, http.StatusServiceUnavailable, codeClosing, "server shutting down")
		return
	}
	body := readIngest(w, r, s.met.decode)
	if body == nil {
		return
	}
	accepted, errs, retryAfter := s.ing.Ingest(body.recs)
	body.release() // Ingest copied the values out and keeps no record
	// Entirely-throttled batches answer 429 with a Retry-After hint; a
	// partial batch stays 200 (some records landed — a blanket retry would
	// double-ingest them) with per-record codes distinguishing throttles.
	if accepted == 0 && retryAfter > 0 && len(errs) > 0 {
		allThrottled := true
		for _, e := range errs {
			if e.Code != codeThrottled {
				allThrottled = false
				break
			}
		}
		if allThrottled {
			secs := int64((retryAfter + time.Second - 1) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
			writeJSON(w, http.StatusTooManyRequests,
				ingestResponse{Accepted: 0, Rejected: errs})
			return
		}
	}
	writeJSON(w, http.StatusOK, ingestResponse{Accepted: accepted, Rejected: errs})
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		writeErr(w, http.StatusServiceUnavailable, codeClosing, "server shutting down")
		return
	}
	s.ing.Flush()
	writeJSON(w, http.StatusOK, map[string]any{"flushed": true})
}
