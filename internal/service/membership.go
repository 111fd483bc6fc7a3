package service

import (
	"context"
	"fmt"

	"disttrack/internal/runtime"
)

// Elastic membership. The paper's protocols handle a site set that changes
// by restarting the current round over the new set (every protocol is
// round-based, and a round restart only costs the round's partial progress)
// — core.Tracker.Reconfigure implements exactly that, folding removed
// sites' counts into site 0 so totals are preserved. This file lifts that
// engine capability to the service: live site add/remove on a running
// tenant (ReconfigureTenant), and the membership epoch it advertises to site
// nodes.
//
// Every membership operation is serialized by Server.memberMu and ends with
// an epoch bump: the new epoch is advertised to the ingest listener,
// persisted in the durable cursor table, and every node connection is cut —
// nodes re-handshake, are refused while they still carry the old epoch, and
// adopt the new one from the goodbye (internal/remote). Mid-stream frames
// from nodes that have not yet noticed are still safe: site validation and
// the delivery-path folds treat an out-of-range site as site 0, matching
// the engine's own fold.

// bumpEpoch advances the membership epoch and propagates it: advertise to
// the ingest listener first (so every hello from here on is measured
// against the new epoch), persist the cursor table carrying it (durable
// restarts resume at the new epoch), then cut every node connection so the
// fleet re-handshakes. Caller holds memberMu.
func (s *Server) bumpEpoch() uint64 {
	e := s.epoch.Add(1)
	ri := s.remote.Load()
	if ri != nil {
		ri.srv.SetEpoch(e)
	}
	if s.dur != nil {
		if err := s.saveCursors(); err != nil {
			s.met.ckptErrors.Inc()
		}
	}
	if ri != nil {
		ri.srv.DisconnectAll()
	}
	return e
}

// ReconfigureTenant changes a live tenant's site count to newK — the
// paper's membership change, online. The engine restarts the tenant's
// protocol round over the new site set; on a shrink, the removed sites'
// exact counts fold into site 0, so no arrival is ever lost and the
// protocol's ε-contract holds over the stream's true total throughout.
//
// Sequence, under the tenant's delivery gate (durMu) so no delivery
// interleaves: build the replacement cluster at newK (idle until
// published), drain the old cluster (everything already enqueued is
// absorbed — the drain cannot deadlock because deliveries, the only
// senders, are fenced by durMu), reconfigure the tracker, swap the cluster
// pointer and the live k, then persist — checkpoint BEFORE meta.json, so a
// crash between the two leaves an old-k meta with a new-k checkpoint: the
// restore fails the k consistency check, the checkpoint is quarantined, and
// recovery falls back to the previous checkpoint plus WAL replay (meta
// first would instead fail every restore and lose the fold). Finally the
// membership epoch is bumped.
func (s *Server) ReconfigureTenant(name string, newK int) error {
	if newK < 1 {
		return fmt.Errorf("k must be >= 1, got %d", newK)
	}
	s.memberMu.Lock()
	defer s.memberMu.Unlock()
	t := s.reg.Get(name)
	if t == nil {
		return fmt.Errorf("tenant %q not found", name)
	}
	if t.K() == newK {
		return nil // already there; no epoch bump, nodes stay connected
	}
	// Build the replacement before any destructive step: its goroutines idle
	// on empty channels until the pointer swap publishes it, and a
	// construction failure aborts with the tenant untouched.
	newClu, err := runtime.New(context.Background(), t.tr, newK, s.cfg.SiteBuffer)
	if err != nil {
		return err
	}
	t.durMu.Lock()
	if s.reg.Get(name) != t || t.isClosed() {
		t.durMu.Unlock()
		newClu.Stop()
		return fmt.Errorf("tenant %q is closing", name)
	}
	old := t.clu.Load()
	old.c.Drain()
	// The drained cluster's counts are final: fold them into the base the
	// replacement carries, so the tenant's counts survive the swap.
	base := old.stats()
	if err := t.tr.Reconfigure(newK); err != nil {
		// Validation failures only (newK ≥ 1 is pre-checked, so this is
		// effectively unreachable): rebuild a cluster at the old k so the
		// tenant keeps working — the old one is already drained.
		newClu.Stop()
		if rb, rerr := runtime.New(context.Background(), t.tr, t.K(), s.cfg.SiteBuffer); rerr == nil {
			t.clu.Store(&liveCluster{c: rb, base: base})
		}
		t.durMu.Unlock()
		return err
	}
	t.clu.Store(&liveCluster{c: newClu, base: base})
	t.kLive.Store(int32(newK))
	if t.dur != nil {
		// Persist the new shape: checkpoint first (see the doc comment),
		// meta second. Failures degrade durability, not the reconfiguration
		// — the fold has already happened; refusing it now would leave the
		// membership half-applied.
		if err := s.persistReconfigured(t); err != nil {
			s.met.ckptErrors.Inc()
		}
	}
	t.durMu.Unlock()
	s.memChanges.Add(1)
	s.bumpEpoch()
	return nil
}

// persistReconfigured writes the post-reconfigure checkpoint and the
// updated meta.json, in that order. Caller holds durMu with the cluster
// drained, so the capture is quiescent and covers the entire WAL.
func (s *Server) persistReconfigured(t *Tenant) error {
	payload, err := t.encodeDurable()
	if err != nil {
		return err
	}
	cover := t.dur.NextSeq() - 1
	if _, _, err := t.dur.WriteCheckpoint(cover, payload); err != nil {
		return err
	}
	return writeMeta(t.dur, t)
}

// MembershipStatus is the /healthz membership section.
type MembershipStatus struct {
	Epoch          uint64 `json:"epoch"`
	Changes        int64  `json:"changes"`         // completed site add/remove reconfigurations
	DurableCursors bool   `json:"durable_cursors"` // persisted cursor table loaded at boot
	CursorNodes    int    `json:"cursor_nodes"`    // per-node dedup cursors held
}

// membershipStatus snapshots the membership plane for /healthz.
func (s *Server) membershipStatus() MembershipStatus {
	ms := MembershipStatus{
		Epoch:   s.epoch.Load(),
		Changes: s.memChanges.Load(),
	}
	if ri := s.remote.Load(); ri != nil {
		ms.CursorNodes = len(ri.srv.Cursors())
	}
	if s.dur != nil {
		s.dur.mu.Lock()
		ms.DurableCursors = s.dur.cursorsFound
		if ms.CursorNodes == 0 {
			ms.CursorNodes = len(s.dur.cursors)
		}
		s.dur.mu.Unlock()
	}
	return ms
}

// Epoch returns the coordinator's current membership epoch.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }
