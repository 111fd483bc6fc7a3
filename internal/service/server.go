package service

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"disttrack/internal/durable"
	"disttrack/internal/obs"
)

// Server ties the registry, the ingest path, the metrics plane and the HTTP
// API together. Create one with New (or Open for the durable plane), mount
// Handler on any http.Server (or use cmd/trackd), and Close it for a graceful
// drain.
type Server struct {
	cfg     Config
	reg     *Registry
	ing     *ingester
	met     *serverMetrics
	dur     *durability // nil without Config.DataDir
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the HTTP instrumentation
	closing atomic.Bool
	remote  atomic.Pointer[RemoteIngest] // set by ServeRemote

	// Membership plane (membership.go): epoch is the coordinator's current
	// membership configuration epoch (≥ 1; recovered from the durable cursor
	// table, advertised to site nodes, bumped on every site add/remove).
	// memberMu serializes membership operations — they are rare, multi-step,
	// and must not interleave.
	epoch      atomic.Uint64
	memberMu   sync.Mutex
	memChanges atomic.Int64 // completed membership reconfigurations
}

// New builds a Server from cfg (zero values take defaults) with durability
// disabled; it ignores Config.DataDir. Use Open when the durable plane is
// wanted — recovery from an existing data directory can fail, which is why
// Open returns an error and New does not.
func New(cfg Config) *Server {
	cfg.DataDir = ""
	s, err := Open(cfg)
	if err != nil {
		// Unreachable: every error path in Open is durability setup.
		panic(err)
	}
	return s
}

// Open builds a Server from cfg and, when cfg.DataDir is set, opens the
// durable plane: it recovers every persisted tenant (newest valid
// checkpoint, then WAL tail replay through the normal ingest path) before
// returning, and starts the periodic checkpoint loop. A corrupt checkpoint
// is quarantined and the previous one used; a torn final WAL record is
// truncated away. Open fails only on durability problems recovery cannot
// route around (unreadable directory, invalid tenant config, mid-log
// corruption).
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg}
	s.met = newServerMetrics(s)
	s.reg = NewRegistry(cfg.SiteBuffer)
	s.reg.met = s.met
	s.ing = newIngester(s.reg, s.met)
	s.mux = newMux(s)
	s.handler = s.met.instrumentHTTP(s.mux)
	s.epoch.Store(1)
	if cfg.DataDir != "" {
		store, err := durable.Open(cfg.DataDir, durable.Options{Fsync: cfg.Fsync})
		if err != nil {
			return nil, err
		}
		s.dur = newDurability(store, cfg.CheckpointInterval)
		s.reg.dur = s.dur
		// Load the persisted coordinator cursor table BEFORE tenant recovery:
		// the WAL replay below merges each record's provenance into the same
		// table, so after recovery it holds max(file, WAL tail) per node — the
		// exactly-once dedup floor for the ingest listener. A corrupt table is
		// fatal (silently starting without it risks double counting).
		ct, found, err := store.LoadCursors()
		if err != nil {
			s.reg.Close()
			return nil, fmt.Errorf("service: recovery: %w", err)
		}
		if found {
			s.dur.cursors = ct.Nodes
			s.dur.cursorsFound = true
			if ct.Epoch > 1 {
				s.epoch.Store(ct.Epoch)
			}
		}
		if err := s.recoverTenants(); err != nil {
			s.reg.Close()
			return nil, fmt.Errorf("service: recovery: %w", err)
		}
		s.met.reg.NewGaugeFunc("disttrack_last_checkpoint_age_seconds",
			"Seconds since the durable plane last completed a checkpoint (or since boot).",
			s.dur.checkpointAge)
		go s.checkpointLoop()
	}
	return s, nil
}

// Handler returns the HTTP API handler (instrumented; see GET /metrics).
func (s *Server) Handler() http.Handler { return s.handler }

// Registry exposes tenant lifecycle for embedding and tests.
func (s *Server) Registry() *Registry { return s.reg }

// Metrics returns the server's obs registry — the one exposed at
// GET /metrics — so embedders can add their own instrumentation to it.
func (s *Server) Metrics() *obs.Registry { return s.met.reg }

// Ingest feeds records to their tenants without HTTP (embedded use).
// Rejections with Code == "rate_limited" were throttled by the tenant's QoS
// admission and are retryable; other rejections are permanent.
func (s *Server) Ingest(recs []Record) (int, []RecordError) {
	accepted, errs, _ := s.ing.Ingest(recs)
	return accepted, errs
}

// Flush blocks until everything accepted so far is visible to queries.
func (s *Server) Flush() { s.ing.Flush() }

// Close drains the service: new ingest/create requests are refused,
// in-flight ingest calls finish delivering, and every tenant's cluster drains
// its remaining arrivals. With the durable plane open, Close then takes a
// final checkpoint of every tenant — a graceful restart recovers from the
// checkpoint alone, with zero WAL replay. Queries keep working until Close
// returns, so call it after the HTTP listener has shut down. A second call
// is a no-op.
func (s *Server) Close() {
	if s.closing.Swap(true) {
		return
	}
	// Stop the networked ingest first so no site-node frame races the
	// teardown; site nodes keep unacknowledged frames buffered and resync
	// against whatever replaces this server.
	if ri := s.remote.Load(); ri != nil {
		ri.Close()
	}
	s.ing.Close()
	if d := s.dur; d != nil {
		d.stopLoop()
		// Ingest is closed, so nothing new reaches the clusters: the final
		// checkpoints cover everything ever accepted.
		for _, t := range s.reg.all() {
			if err := s.checkpointTenant(t); err != nil {
				s.met.ckptErrors.Inc()
			}
			if t.dur != nil {
				t.dur.Close()
			}
		}
		// Persist the final cursor table (the ingest server's lastSeq map
		// outlives its Close, and every applied record is already in a
		// checkpoint or the WAL): a graceful restart recovers the dedup floor
		// without any WAL provenance scan.
		if err := s.saveCursors(); err != nil {
			s.met.ckptErrors.Inc()
		}
	}
	s.reg.Close()
}
