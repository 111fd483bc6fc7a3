package engine

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"

	"disttrack/internal/ckpt"
	"disttrack/internal/wire"
)

// Checkpoint frame: magic/version for the engine envelope; the policy blob
// is nested inside the same payload. maxCheckpointBytes bounds decode-side
// allocation against corrupt length fields (1 GiB is far above any real
// tenant: state is O(k/ε) words plus, for exact-mode stores, the items).
const (
	ckptMagic          = uint32(0xD157_C4B7)
	ckptVersion        = uint16(1)
	maxCheckpointBytes = 1 << 30
)

// Checkpoint writes a versioned, checksummed snapshot of the engine and its
// policy to w. Capture runs under the quiescent lock set (exactly like
// Quiesce), so the bytes are a consistent cut: they reflect every arrival
// fed before the call and none fed after. The engine remains live.
func (e *Engine) Checkpoint(w io.Writer) error {
	var enc ckpt.Encoder
	e.Quiesce(func() {
		sites := *e.sites.Load()
		enc.String(e.name)
		enc.U32(uint32(len(sites)))
		enc.F64(e.eps)
		enc.Bool(e.boot)
		enc.I64(e.n.Load())
		enc.U64(e.version.Load())
		for _, s := range sites {
			enc.I64(s.nj)
		}
		encodeMeterState(&enc, e.meter.State())
		e.pol.EncodeState(&enc)
	})
	return ckpt.WriteFrame(w, ckptMagic, ckptVersion, enc.Bytes())
}

// Restore rebuilds the engine and its policy from a checkpoint written by
// Checkpoint. It must be called on a fresh engine — same constructor
// arguments, before the first feed — and verifies that the checkpoint's
// name/k/eps match the engine's. On any error the engine (and its policy)
// may be partially mutated and must be discarded; Restore never panics on
// corrupt input.
func (e *Engine) Restore(r io.Reader) error {
	if e.n.Load() != 0 || e.version.Load() != 0 {
		return errors.New("engine: Restore on an engine that has already run")
	}
	version, payload, err := ckpt.ReadFrame(r, ckptMagic, maxCheckpointBytes)
	if err != nil {
		return fmt.Errorf("engine: restore: %w", err)
	}
	if version != ckptVersion {
		return fmt.Errorf("engine: restore: unsupported checkpoint version %d", version)
	}
	dec := ckpt.NewDecoder(payload)
	name := dec.String()
	k := int(dec.U32())
	eps := dec.F64()
	if err := dec.Err(); err != nil {
		return fmt.Errorf("engine: restore: %w", err)
	}
	if name != e.name || k != e.K() || eps != e.eps {
		return fmt.Errorf("engine: restore: checkpoint is for %s(k=%d, eps=%g), engine is %s(k=%d, eps=%g)",
			name, k, eps, e.name, e.K(), e.eps)
	}
	boot := dec.Bool()
	n := dec.I64()
	ver := dec.U64()
	nj := make([]int64, k)
	var sum int64
	for i := range nj {
		nj[i] = dec.I64()
		if nj[i] < 0 {
			return fmt.Errorf("engine: restore: negative site count nj[%d]=%d", i, nj[i])
		}
		sum += nj[i]
	}
	ms, err := decodeMeterState(dec)
	if err != nil {
		return fmt.Errorf("engine: restore: %w", err)
	}
	if err := dec.Err(); err != nil {
		return fmt.Errorf("engine: restore: %w", err)
	}
	if n < 0 || sum != n {
		return fmt.Errorf("engine: restore: site counts sum to %d, total is %d", sum, n)
	}
	// Commit under the quiescent lock set. A fresh engine has no concurrent
	// users yet, but holding the locks keeps the invariant ("engine state
	// changes only under all site locks") unconditional.
	e.escMu.Lock()
	e.lockSites()
	defer func() {
		e.unlockSites()
		e.escMu.Unlock()
	}()
	e.boot = boot
	e.n.Store(n)
	e.version.Store(ver)
	for i, s := range *e.sites.Load() {
		s.nj = nj[i]
	}
	e.meter.SetState(ms)
	if err := e.pol.DecodeState(dec); err != nil {
		return fmt.Errorf("engine: restore %s policy: %w", e.name, err)
	}
	if err := dec.Err(); err != nil {
		return fmt.Errorf("engine: restore %s policy: %w", e.name, err)
	}
	if rem := dec.Remaining(); rem != 0 {
		return fmt.Errorf("engine: restore: %d trailing bytes after policy state", rem)
	}
	return nil
}

func encodeMeterState(enc *ckpt.Encoder, st wire.MeterState) {
	encodeCost(enc, st.Up)
	encodeCost(enc, st.Down)
	enc.Bool(st.KindsOff)
	enc.U32(uint32(len(st.ByKind)))
	for _, k := range slices.Sorted(maps.Keys(st.ByKind)) {
		enc.String(k)
		encodeCost(enc, st.ByKind[k])
	}
	enc.U32(uint32(len(st.BySite)))
	for _, c := range st.BySite {
		encodeCost(enc, c)
	}
	enc.U32(uint32(len(st.ByTenant)))
	for _, k := range slices.Sorted(maps.Keys(st.ByTenant)) {
		enc.String(k)
		encodeCost(enc, st.ByTenant[k])
	}
}

func decodeMeterState(dec *ckpt.Decoder) (wire.MeterState, error) {
	var st wire.MeterState
	st.Up = decodeCost(dec)
	st.Down = decodeCost(dec)
	st.KindsOff = dec.Bool()
	// Each ByKind entry is at least 4 (name len) + 16 (cost) bytes.
	nKinds := dec.Count(20)
	if nKinds > 0 {
		st.ByKind = make(map[string]wire.Cost, nKinds)
		for i := 0; i < nKinds && dec.Err() == nil; i++ {
			k := dec.String()
			st.ByKind[k] = decodeCost(dec)
		}
	}
	nSites := dec.Count(16)
	for i := 0; i < nSites && dec.Err() == nil; i++ {
		st.BySite = append(st.BySite, decodeCost(dec))
	}
	nTenants := dec.Count(20)
	if nTenants > 0 {
		st.ByTenant = make(map[string]wire.Cost, nTenants)
		for i := 0; i < nTenants && dec.Err() == nil; i++ {
			k := dec.String()
			st.ByTenant[k] = decodeCost(dec)
		}
	}
	return st, dec.Err()
}

func encodeCost(enc *ckpt.Encoder, c wire.Cost) {
	enc.I64(c.Msgs)
	enc.I64(c.Words)
}

func decodeCost(dec *ckpt.Decoder) wire.Cost {
	return wire.Cost{Msgs: dec.I64(), Words: dec.I64()}
}
