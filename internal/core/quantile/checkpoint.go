package quantile

import (
	"fmt"

	"disttrack/internal/ckpt"
	"disttrack/internal/sitestore"
)

// Engine checkpoint support (engine.Policy.EncodeState/DecodeState). Round
// thresholds (thrIv/thrTot/splitAt/driftTrig) are serialized rather than
// recomputed from m: they depend on the BatchDivisor ablation knob and on
// float arithmetic, and storing them guarantees the restored tracker
// escalates at exactly the captured round's boundaries. The drift batch
// is the interval batch: its slot, after thrTot, is written from thrIv, and
// a checkpoint whose slot differs is refused.

// EncodeState appends the policy state; runs under the quiescent lock set.
func (p *policy) EncodeState(enc *ckpt.Encoder) {
	enc.Bool(p.cfg.Sketch)
	enc.U32(uint32(len(p.cfg.Phis)))
	for _, phi := range p.cfg.Phis {
		enc.F64(phi)
	}
	enc.I64(p.m)
	enc.U64s(p.seps)
	enc.I64s(p.ivCount)
	enc.I64(p.totEst)
	enc.I64(p.thrIv)
	enc.I64(p.thrTot)
	enc.I64(p.thrIv) // the drift batch's slot
	enc.I64(p.splitAt)
	enc.F64(p.driftTrig)
	for _, q := range p.qs {
		enc.F64(q.phi)
		enc.U64(q.m0)
		enc.I64(q.lBase)
		enc.I64(q.tBase)
		enc.I64(q.dL)
		enc.I64(q.dR)
	}
	enc.I64(int64(p.rounds))
	enc.I64(int64(p.relocations))
	enc.I64(int64(p.splits))
	enc.I64(int64(p.cannotSplit))
	p.boot.Encode(enc)
	for _, s := range p.sites {
		sitestore.Encode(enc, s.st)
		enc.I64s(s.ivDelta)
		enc.I64(s.totDelta)
		for _, d := range s.drift {
			enc.I64(d[0])
			enc.I64(d[1])
		}
	}
}

// DecodeState rebuilds the policy state on a fresh tracker; on error the
// tracker must be discarded.
func (p *policy) DecodeState(dec *ckpt.Decoder) error {
	if sketch := dec.Bool(); dec.Err() == nil && sketch != p.cfg.Sketch {
		return fmt.Errorf("quantile: restore: checkpoint has Sketch %t, tracker %t", sketch, p.cfg.Sketch)
	}
	if n := int(dec.U32()); dec.Err() == nil && n != len(p.cfg.Phis) {
		return fmt.Errorf("quantile: restore: checkpoint tracks %d quantiles, tracker %d", n, len(p.cfg.Phis))
	}
	for i, phi := range p.cfg.Phis {
		if got := dec.F64(); dec.Err() == nil && got != phi {
			return fmt.Errorf("quantile: restore: phi[%d] is %g in checkpoint, %g in tracker", i, got, phi)
		}
	}
	p.m = dec.I64()
	p.seps = dec.U64s()
	p.ivCount = dec.I64s()
	p.totEst = dec.I64()
	p.thrIv = dec.I64()
	p.thrTot = dec.I64()
	thrDrift := dec.I64()
	p.splitAt = dec.I64()
	p.driftTrig = dec.F64()
	if dec.Err() == nil && thrDrift != p.thrIv {
		return fmt.Errorf("quantile: restore: drift batch %d differs from interval batch %d", thrDrift, p.thrIv)
	}
	if dec.Err() == nil && len(p.ivCount) != len(p.seps)+1 && !(len(p.seps) == 0 && len(p.ivCount) == 0) {
		return fmt.Errorf("quantile: restore: %d separators but %d interval counts", len(p.seps), len(p.ivCount))
	}
	// The engine commits its own fields (including the bootstrap flag)
	// before the policy decodes: a tracking-phase policy without intervals
	// would index an empty ivDelta on first feed.
	if dec.Err() == nil && !p.eng.Bootstrapping() && len(p.ivCount) == 0 {
		return fmt.Errorf("quantile: restore: tracking phase but no intervals")
	}
	for i := 1; i < len(p.seps); i++ {
		if p.seps[i] <= p.seps[i-1] {
			return fmt.Errorf("quantile: restore: separators out of order at %d", i)
		}
	}
	for i := range p.qs {
		if got := dec.F64(); dec.Err() == nil && got != p.cfg.Phis[i] {
			return fmt.Errorf("quantile: restore: quantile %d tracks phi %g in checkpoint, %g in tracker", i, got, p.cfg.Phis[i])
		}
		p.qs[i].phi = p.cfg.Phis[i]
		p.qs[i].m0 = dec.U64()
		p.qs[i].lBase = dec.I64()
		p.qs[i].tBase = dec.I64()
		p.qs[i].dL = dec.I64()
		p.qs[i].dR = dec.I64()
		if dec.Err() == nil && (p.qs[i].dL < 0 || p.qs[i].dR < 0) {
			return fmt.Errorf("quantile: restore: negative drift %d/%d for phi %g", p.qs[i].dL, p.qs[i].dR, p.qs[i].phi)
		}
	}
	p.rounds = int(dec.I64())
	p.relocations = int(dec.I64())
	p.splits = int(dec.I64())
	p.cannotSplit = int(dec.I64())
	if err := p.boot.Decode(dec); err != nil {
		return fmt.Errorf("quantile: restore: %w", err)
	}
	for j, s := range p.sites {
		st, err := sitestore.Decode(dec)
		if err != nil {
			return fmt.Errorf("quantile: restore site %d: %w", j, err)
		}
		s.st = st
		s.quiet = 0
		s.ivDelta = dec.I64s()
		s.totDelta = dec.I64()
		if dec.Err() == nil && len(s.ivDelta) != len(p.ivCount) {
			return fmt.Errorf("quantile: restore site %d: %d interval deltas, want %d", j, len(s.ivDelta), len(p.ivCount))
		}
		for i := range s.drift {
			s.drift[i][0] = dec.I64()
			s.drift[i][1] = dec.I64()
		}
		if err := dec.Err(); err != nil {
			return err
		}
		if err := p.checkSiteDeltas(s); err != nil {
			return fmt.Errorf("quantile: restore site %d: %w", j, err)
		}
	}
	return dec.Err()
}

// checkSiteDeltas refuses a site's unreported counts that no run of the
// protocol leaves behind: a negative count, or a count or drift pair the
// site would already have reported. A report adds exactly its threshold to
// the coordinator's count, so an interval or total delta at or past it would
// be lost without notice; a drift pair past thrIv breaks the invariant the
// ε bound rests on (every site's signed drift below thrIv), so a tracker
// restored past it would answer outside ε without knowing.
func (p *policy) checkSiteDeltas(s *site) error {
	tracking := !p.eng.Bootstrapping()
	if s.totDelta < 0 {
		return fmt.Errorf("negative total delta %d", s.totDelta)
	}
	if tracking && s.totDelta >= p.thrTot {
		return fmt.Errorf("total delta %d is at or past its report threshold %d", s.totDelta, p.thrTot)
	}
	for i, d := range s.ivDelta {
		if d < 0 {
			return fmt.Errorf("negative delta %d for interval %d", d, i)
		}
		if tracking && d >= p.thrIv {
			return fmt.Errorf("delta %d for interval %d is at or past its report threshold %d", d, i, p.thrIv)
		}
	}
	for qi, d := range s.drift {
		if d[0] < 0 || d[1] < 0 {
			return fmt.Errorf("negative drift %v for phi %g", d, p.cfg.Phis[qi])
		}
		if tracking && absDrift(p.cfg.Phis[qi], d) >= float64(p.thrIv) {
			return fmt.Errorf("drift %v for phi %g is past its report threshold %d", d, p.cfg.Phis[qi], p.thrIv)
		}
	}
	return nil
}
