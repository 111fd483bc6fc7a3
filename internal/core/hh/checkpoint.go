package hh

import (
	"fmt"

	"disttrack/internal/ckpt"
	"disttrack/internal/slots"
	"disttrack/internal/summary/mg"
	"disttrack/internal/summary/spacesaving"
)

// Engine checkpoint support (engine.Policy.EncodeState/DecodeState): the
// §2.1 policy's state is the coordinator underestimates plus, per site, the
// broadcast mark, the unreported delta, and the mode-specific frequency
// store. Thresholds are derived from broadcast state (m), so nothing else
// needs capturing. See docs/durability.md for the format.

// EncodeState appends the policy state; runs under the quiescent lock set.
func (p *policy) EncodeState(enc *ckpt.Encoder) {
	enc.U8(uint8(p.cfg.Mode))
	enc.I64(p.cm)
	enc.MapU64I64(p.cmx)
	enc.I64(int64(p.allSignals))
	enc.I64(int64(p.rounds))
	for _, s := range p.sites {
		enc.I64(s.m)
		enc.I64(s.dm)
		switch p.cfg.Mode {
		case ModeExact:
			sorted := s.tab.Sorted()
			encodeColumn(enc, sorted, func(c counts) int64 { return c.local })
			encodeColumn(enc, sorted, func(c counts) int64 { return c.dx })
		case ModeSketch:
			encodeSS(enc, s.ss.State())
			enc.MapU64I64(s.lastRep)
		case ModeMGSketch:
			encodeMG(enc, s.mgs.State())
			enc.MapU64I64(s.lastRep)
		}
	}
}

// DecodeState rebuilds the policy state on a fresh tracker; on error the
// tracker must be discarded.
func (p *policy) DecodeState(dec *ckpt.Decoder) error {
	if mode := Mode(dec.U8()); dec.Err() == nil && mode != p.cfg.Mode {
		return fmt.Errorf("hh: restore: checkpoint mode %d, tracker mode %d", mode, p.cfg.Mode)
	}
	p.cm = dec.I64()
	p.cmx = dec.MapU64I64()
	p.allSignals = int(dec.I64())
	p.rounds = int(dec.I64())
	for i, s := range p.sites {
		s.m = dec.I64()
		s.dm = dec.I64()
		switch p.cfg.Mode {
		case ModeExact:
			for x, c := range dec.MapU64I64() {
				s.tab.Get(x).Val.local = c
			}
			for x, d := range dec.MapU64I64() {
				s.tab.Get(x).Val.dx = d
			}
		case ModeSketch:
			st, err := decodeSS(dec)
			if err != nil {
				return fmt.Errorf("hh: restore site %d: %w", i, err)
			}
			ss, err := spacesaving.FromState(st)
			if err != nil {
				return fmt.Errorf("hh: restore site %d: %w", i, err)
			}
			s.ss = ss
			s.lastRep = dec.MapU64I64()
		case ModeMGSketch:
			st, err := decodeMG(dec)
			if err != nil {
				return fmt.Errorf("hh: restore site %d: %w", i, err)
			}
			mgs, err := mg.FromState(st)
			if err != nil {
				return fmt.Errorf("hh: restore site %d: %w", i, err)
			}
			s.mgs = mgs
			s.lastRep = dec.MapU64I64()
		}
	}
	return dec.Err()
}

// encodeColumn writes one counter of the key-sorted slots as
// ckpt.Encoder.MapU64I64 writes a map — nonzero values only, ascending
// keys — so DecodeState reads it back with Decoder.MapU64I64.
func encodeColumn(enc *ckpt.Encoder, sorted []slots.Slot[counts], col func(counts) int64) {
	n := 0
	for _, sl := range sorted {
		if col(sl.Val) != 0 {
			n++
		}
	}
	enc.U32(uint32(n))
	for _, sl := range sorted {
		if v := col(sl.Val); v != 0 {
			enc.U64(sl.Key)
			enc.I64(v)
		}
	}
}

func encodeSS(enc *ckpt.Encoder, st spacesaving.State) {
	enc.I64(int64(st.Cap))
	enc.I64(st.N)
	enc.U32(uint32(len(st.Entries)))
	for _, e := range st.Entries {
		enc.U64(e.Item)
		enc.I64(e.Count)
		enc.I64(e.Err)
	}
}

func decodeSS(dec *ckpt.Decoder) (spacesaving.State, error) {
	var st spacesaving.State
	st.Cap = int(dec.I64())
	st.N = dec.I64()
	n := dec.Count(24)
	if err := dec.Err(); err != nil {
		return st, err
	}
	st.Entries = make([]spacesaving.Entry, n)
	for i := range st.Entries {
		st.Entries[i] = spacesaving.Entry{Item: dec.U64(), Count: dec.I64(), Err: dec.I64()}
	}
	return st, dec.Err()
}

func encodeMG(enc *ckpt.Encoder, st mg.State) {
	enc.I64(int64(st.Cap))
	enc.I64(st.N)
	enc.MapU64I64(st.Counters)
}

func decodeMG(dec *ckpt.Decoder) (mg.State, error) {
	var st mg.State
	st.Cap = int(dec.I64())
	st.N = dec.I64()
	st.Counters = dec.MapU64I64()
	return st, dec.Err()
}
