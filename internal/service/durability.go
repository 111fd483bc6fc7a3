package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"disttrack/internal/ckpt"
	"disttrack/internal/durable"
	"disttrack/internal/runtime"
	"disttrack/internal/stream"
)

// durability is the server's durable plane: the store handle, the
// checkpoint loop lifecycle, and the recovery bookkeeping surfaced at
// /healthz. It exists only when Config.DataDir is set; every ingest-path
// hook is a nil check against it (or the per-tenant handle), so a server
// without durability pays nothing.
//
// The consistency contract between the WAL and a checkpoint: each
// {perturb, WAL append, cluster send} step runs under the tenant's durMu,
// and the checkpointer captures state under the same mutex after waiting
// for the cluster to absorb everything sent. At capture time, then, the
// tracker state (plus the perturbation counters) reflects exactly the WAL
// prefix up to the cover sequence — recovery restores the checkpoint and
// replays strictly newer records, giving exactly-once application of every
// acknowledged record that reached the WAL.
type durability struct {
	store    *durable.Store
	interval time.Duration

	stop chan struct{}
	done chan struct{}

	mu          sync.Mutex
	lastCkpt    time.Time // last completed checkpoint (boot time until then)
	recovered   int       // tenants restored at boot
	replayed    int64     // WAL records replayed at boot
	quarantined int       // checkpoints quarantined at boot
	tornTails   int       // WAL segments repaired by torn-tail truncation

	// cursors is the coordinator's per-node ingest dedup table as recovered
	// at boot: the persisted cursor file merged with the max provenance seen
	// per node across every tenant's on-disk WAL (the file may lag the WAL by
	// up to one checkpoint cycle; the WAL never lags the file, because a
	// node's cursor advances only after its frame's WAL append). It seeds the
	// ingest server's lastSeq table so a node replaying a tail the previous
	// incarnation applied is deduplicated exactly. cursorsFound records
	// whether the cursor file existed (false on a pre-cursor data dir: boot
	// warns and dedup falls back to the WAL-derived maxima alone).
	cursors      map[string]uint64
	cursorsFound bool
}

func newDurability(store *durable.Store, interval time.Duration) *durability {
	return &durability{
		store:    store,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		lastCkpt: time.Now(),
	}
}

// checkpointAge reports seconds since the last completed checkpoint (or
// since boot), for the disttrack_last_checkpoint_age_seconds gauge.
func (d *durability) checkpointAge() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return time.Since(d.lastCkpt).Seconds()
}

// replayedRecords reports the WAL records replayed at boot, for the
// disttrack_wal_replayed_total counter.
func (d *durability) replayedRecords() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.replayed
}

func (d *durability) noteCheckpoint() {
	d.mu.Lock()
	d.lastCkpt = time.Now()
	d.mu.Unlock()
}

// stopLoop stops the periodic checkpoint loop and waits for it to exit.
func (d *durability) stopLoop() {
	close(d.stop)
	<-d.done
}

// setupTenant creates the durable state for a freshly created tenant:
// directory, persisted config (so a crash before the first checkpoint
// still recovers the tenant), and an open WAL. Runs before the tenant is
// published in the registry, so the ingest path never sees a half-set-up
// handle.
func (d *durability) setupTenant(t *Tenant) error {
	ten, err := d.store.Tenant(t.cfg.Name)
	if err != nil {
		return err
	}
	if err := writeMeta(ten, t); err != nil {
		return err
	}
	if err := ten.OpenWAL(1); err != nil {
		return err
	}
	t.dur = ten
	return nil
}

// tenantMeta is a tenant's meta.json: its config, plus whether its keys
// spread their ties (stream.TiesSpread). A meta.json without "spread_ties"
// was written before ties were spread: that tenant's checkpointed counters
// and logged keys count copies in ascending order, and it keeps issuing keys
// in that order, so no new key lands on an old one.
type tenantMeta struct {
	TenantConfig
	SpreadTies bool `json:"spread_ties,omitempty"`
}

func (m tenantMeta) order() stream.TieOrder {
	if m.SpreadTies {
		return stream.TiesSpread
	}
	return stream.TiesAscending
}

// writeMeta persists t's config and tie order as ten's meta.json.
func writeMeta(ten *durable.Tenant, t *Tenant) error {
	meta, err := json.Marshal(tenantMeta{TenantConfig: t.Config(), SpreadTies: t.order == stream.TiesSpread})
	if err != nil {
		return err
	}
	return ten.Create(meta)
}

// RecoveryStats reports what boot recovery did, for operator-facing boot
// logs (cmd/trackd). The zero value means durability is disabled or the
// data directory was empty.
type RecoveryStats struct {
	RecoveredTenants       int   // tenants restored from disk
	ReplayedRecords        int64 // WAL record batches replayed
	QuarantinedCheckpoints int   // checkpoints renamed *.corrupt and skipped
	TornTails              int   // WAL segments repaired by torn-tail truncation
	CursorNodes            int   // per-node dedup cursors recovered (file + WAL provenance)
	DurableCursors         bool  // the persisted cursor table was found and loaded
}

// RecoveryStats returns what boot recovery did (zero without durability).
func (s *Server) RecoveryStats() RecoveryStats {
	d := s.dur
	if d == nil {
		return RecoveryStats{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return RecoveryStats{
		RecoveredTenants:       d.recovered,
		ReplayedRecords:        d.replayed,
		QuarantinedCheckpoints: d.quarantined,
		TornTails:              d.tornTails,
		CursorNodes:            len(d.cursors),
		DurableCursors:         d.cursorsFound,
	}
}

// mergeCursor folds one WAL record's provenance into the boot cursor table
// (recovery takes the max of the persisted file and the WAL tail per node).
func (d *durability) mergeCursor(node string, seq uint64) {
	d.mu.Lock()
	if d.cursors == nil {
		d.cursors = make(map[string]uint64)
	}
	if seq > d.cursors[node] {
		d.cursors[node] = seq
	}
	d.mu.Unlock()
}

// cursorSnapshot copies the boot-recovered cursor table.
func (d *durability) cursorSnapshot() map[string]uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]uint64, len(d.cursors))
	for n, seq := range d.cursors {
		out[n] = seq
	}
	return out
}

// DurabilityStatus is the /healthz durability section.
type DurabilityStatus struct {
	LastCheckpointAgeS float64 `json:"last_checkpoint_age_s"`
	WALSegments        int64   `json:"wal_segments"`
	RecoveredTenants   int     `json:"recovered_tenants"`
}

// durabilityStatus snapshots the durable plane for /healthz (nil when
// durability is disabled).
func (s *Server) durabilityStatus() *DurabilityStatus {
	d := s.dur
	if d == nil {
		return nil
	}
	var segs int64
	for _, t := range s.reg.all() {
		if t.dur != nil {
			segs += t.dur.WALStats().Segments
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return &DurabilityStatus{
		LastCheckpointAgeS: time.Since(d.lastCkpt).Seconds(),
		WALSegments:        segs,
		RecoveredTenants:   d.recovered,
	}
}

// recoverTenants rebuilds every persisted tenant at boot: config from
// meta.json, state from the newest valid checkpoint, then the WAL tail
// replayed through the normal cluster path. It runs before the server
// serves anything, so queries never observe a half-recovered tenant.
func (s *Server) recoverTenants() error {
	names, err := s.dur.store.ListTenants()
	if err != nil {
		return err
	}
	for _, name := range names {
		if err := s.recoverTenant(name); err != nil {
			return fmt.Errorf("tenant %s: %w", name, err)
		}
	}
	return nil
}

func (s *Server) recoverTenant(name string) error {
	ten, err := s.dur.store.Tenant(name)
	if err != nil {
		return err
	}
	meta, err := ten.Meta()
	if err != nil {
		return err
	}
	var tm tenantMeta
	if err := json.Unmarshal(meta, &tm); err != nil {
		return fmt.Errorf("bad meta.json: %w", err)
	}
	tc := tm.TenantConfig
	if tc.Name != name {
		return fmt.Errorf("meta.json names tenant %q", tc.Name)
	}
	if err := tc.validate(); err != nil {
		return fmt.Errorf("bad meta.json: %w", err)
	}

	// Load the newest checkpoint whose frame AND payload decode cleanly.
	// Frame-level corruption is quarantined inside LoadCheckpoint; a frame
	// that verifies but fails the payload decode (truncated write that
	// still checksums, version skew) is quarantined here, and the tracker
	// rebuilt from scratch for the next candidate — a failed Restore
	// leaves a tracker unusable by contract.
	var t *Tenant
	var cover uint64
	for {
		ck, quarantined, err := ten.LoadCheckpoint()
		if err != nil {
			return err
		}
		s.dur.quarantined += quarantined
		t, err = newTenant(tc, tm.order(), s.cfg.SiteBuffer, s.met)
		if err != nil {
			return err
		}
		if ck == nil {
			break
		}
		if rerr := t.restoreDurable(ck.Payload); rerr != nil {
			t.close(false)
			if err := ten.Quarantine(ck.CoverSeq); err != nil {
				return err
			}
			s.dur.quarantined++
			continue
		}
		cover = ck.CoverSeq
		break
	}

	// Replay the ENTIRE on-disk WAL, not just the tail past the cover:
	// records at or before the cover are already inside the checkpoint and
	// are not re-applied, but their per-node provenance still feeds the
	// cursor table. The persisted cursor file is only guaranteed to cover
	// records up to the OLDEST retained checkpoint cover (cursors are saved
	// once per cycle, after the checkpoints that truncate to that older
	// cover), so the provenance of everything newer must be re-derived here
	// — otherwise a node replaying that window after a crash would be
	// double-applied.
	var applied int64
	stats, err := ten.ReplayWAL(0, func(seq uint64, site int, keys []uint64, node string, nodeSeq uint64) error {
		if node != "" {
			s.dur.mergeCursor(node, nodeSeq)
		}
		if seq <= cover {
			return nil // inside the checkpoint: provenance only
		}
		applied++
		return t.replayBatch(site, keys)
	})
	if err != nil {
		t.close(false)
		return err
	}
	// Wait for the cluster to absorb the replay so the tenant answers
	// queries consistently the moment recovery returns. Nothing can close
	// the tenant here: it is not in the registry yet.
	t.awaitSynced()
	next := cover + 1
	if stats.LastSeq >= next {
		next = stats.LastSeq + 1
	}
	if err := ten.OpenWAL(next); err != nil {
		t.close(false)
		return err
	}
	t.dur = ten
	if err := s.reg.insert(t); err != nil {
		t.close(false)
		ten.Close()
		return err
	}
	s.dur.mu.Lock()
	s.dur.recovered++
	s.dur.replayed += applied
	if stats.TornTail {
		s.dur.tornTails++
	}
	s.dur.mu.Unlock()
	return nil
}

// replayBatch re-feeds keys recovered from the WAL through the normal
// cluster path, bypassing admission, perturbation and the WAL itself (the
// keys are already perturbed, already admitted, already logged). It also
// advances each value's perturbation counter past the copy number
// (stream.Copy, in the tenant's tie order) of every replayed key, so new
// ingest after recovery continues the sequence instead of reusing keys.
// Whatever the keys, a later perturb reissues one only as a counted tie.
// A site past the live count (a WAL written before a membership shrink)
// folds onto site 0, matching the engine's Reconfigure fold.
func (t *Tenant) replayBatch(site int, keys []uint64) error {
	if site >= t.K() {
		site = 0
	}
	if t.seq != nil {
		for _, k := range keys {
			next := min(stream.Copy(k, t.order)+1, maxCopy)
			if c := &t.seq.Get(stream.Unperturb(k)).Val; *c < next {
				*c = next
			}
		}
	}
	b := append(runtime.GetBatch(len(keys)), keys...)
	return t.sendBatch(site, b)
}

// encodeDurable captures the tenant's durable payload: name (sanity), the
// perturbation counters, and the tracker's engine checkpoint. The caller
// must hold durMu with the cluster synced, so the capture matches the WAL
// cover exactly.
func (t *Tenant) encodeDurable() ([]byte, error) {
	var enc ckpt.Encoder
	enc.String(t.cfg.Name)
	if t.seq == nil {
		enc.Bool(false)
	} else {
		enc.Bool(true)
		enc.U32(uint32(t.seq.Len()))
		for _, sl := range t.seq.Sorted() {
			enc.U64(sl.Key)
			enc.U32(sl.Val)
		}
	}
	var buf bytes.Buffer
	if err := t.tr.Checkpoint(&buf); err != nil {
		return nil, err
	}
	enc.Blob(buf.Bytes())
	return append([]byte(nil), enc.Bytes()...), nil
}

// restoreDurable rebuilds the tenant from a checkpoint payload. The tenant
// must be freshly constructed; on error it must be discarded (the tracker
// may be half-restored).
func (t *Tenant) restoreDurable(payload []byte) error {
	dec := ckpt.NewDecoder(payload)
	name := dec.String()
	if dec.Err() == nil && name != t.cfg.Name {
		return fmt.Errorf("checkpoint for tenant %q, want %q", name, t.cfg.Name)
	}
	hasSeq := dec.Bool()
	if dec.Err() == nil && hasSeq != t.perturbed() {
		return fmt.Errorf("checkpoint perturbation state does not match tenant kind %q", t.cfg.Kind)
	}
	if hasSeq {
		n := dec.Count(12) // 8-byte value + 4-byte counter per entry
		if err := dec.Err(); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			v := dec.U64()
			q := dec.U32()
			if err := dec.Err(); err != nil {
				return err
			}
			t.seq.Get(v).Val = q
		}
	}
	blob := dec.Blob()
	if err := dec.Err(); err != nil {
		return err
	}
	if dec.Remaining() != 0 {
		return fmt.Errorf("checkpoint payload has %d trailing bytes", dec.Remaining())
	}
	return t.tr.Restore(bytes.NewReader(blob))
}

// checkpointTenant writes one durable checkpoint for t: block the tenant's
// WAL appends (durMu), note the cover sequence, wait for the cluster to
// absorb everything sent, capture under the engine's quiescent lock set,
// then write, prune and truncate outside the mutex. No-op for closed
// tenants and for tenants without a durable handle.
func (s *Server) checkpointTenant(t *Tenant) error {
	d := t.dur
	if d == nil || t.isClosed() {
		return nil
	}
	t0 := time.Now()
	t.durMu.Lock()
	cover := d.NextSeq() - 1
	if !t.awaitSynced() {
		t.durMu.Unlock()
		return nil
	}
	payload, err := t.encodeDurable()
	t.durMu.Unlock()
	if err != nil {
		return err
	}
	size, _, err := d.WriteCheckpoint(cover, payload)
	if err != nil {
		return err
	}
	s.met.ckptTotal.Inc()
	s.met.ckptBytes.Add(size)
	s.met.ckptSecs.Observe(time.Since(t0).Seconds())
	s.dur.noteCheckpoint()
	return nil
}

// checkpointCycle runs one full durable cycle: checkpoint every live
// tenant, then persist the coordinator cursor table. The order matters for
// exactly-once recovery: a checkpoint's WAL truncation goes to the OLDER of
// the two retained covers, and the cursor file written at the end of cycle
// n covers everything up to cycle n's cover — which becomes the older
// retained cover after cycle n+1. So at every crash point, per-node
// provenance is recoverable from max(cursor file, full on-disk WAL scan).
func (s *Server) checkpointCycle() {
	for _, t := range s.reg.all() {
		if err := s.checkpointTenant(t); err != nil {
			s.met.ckptErrors.Inc()
		}
	}
	if err := s.saveCursors(); err != nil {
		s.met.ckptErrors.Inc()
	}
}

// saveCursors persists the coordinator cursor table. Any snapshot is an
// applied == durable safe point: a node's cursor advances only after
// IngestGrouped has returned for its frame, and that call appends the frame
// to the WAL before returning — so every record the snapshot claims applied
// has reached the WAL, and a cursor never covers an un-logged record (which
// would be a silent drop on recovery).
func (s *Server) saveCursors() error {
	if s.dur == nil {
		return nil
	}
	var nodes map[string]uint64
	if ri := s.remote.Load(); ri != nil {
		nodes = ri.srv.Cursors()
	} else {
		// No remote listener (yet): persist the boot-recovered table so a
		// pure-HTTP restart still carries epoch and cursor state forward.
		nodes = s.dur.cursorSnapshot()
	}
	return s.dur.store.SaveCursors(durable.CursorTable{
		Epoch: s.epoch.Load(),
		Nodes: nodes,
	})
}

// checkpointLoop runs the durable cycle on the configured cadence until
// Close stops it.
func (s *Server) checkpointLoop() {
	defer close(s.dur.done)
	tick := time.NewTicker(s.dur.interval)
	defer tick.Stop()
	for {
		select {
		case <-s.dur.stop:
			return
		case <-tick.C:
			s.checkpointCycle()
		}
	}
}
