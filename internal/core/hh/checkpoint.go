package hh

import (
	"errors"
	"fmt"

	"disttrack/internal/ckpt"
	"disttrack/internal/slots"
	"disttrack/internal/summary/spacesaving"
)

// Engine checkpoint support (engine.Policy.EncodeState/DecodeState): the
// §2.1 policy's state is the coordinator underestimates plus, per site, the
// broadcast mark, the unreported delta, and the mode-specific frequency
// store. Thresholds are derived from broadcast state (m), so nothing else
// needs capturing: the coordinator's broadcast mark S.m is every site's
// S_j.m, since a broadcast writes all k sites and a joining site gets one
// before it reports. The slot after C.m_x holds the "all" reports since
// that broadcast, which no decoder reads. See docs/durability.md for the
// format.

// storeMisraGries is the store byte a checkpoint of the removed
// Misra–Gries site sketch starts its policy state with. DecodeState names it
// when it refuses one; every other byte above 1 fails as an invalid bool.
const storeMisraGries = 2

// EncodeState appends the policy state; runs under the quiescent lock set.
func (p *policy) EncodeState(enc *ckpt.Encoder) {
	co := &p.coord
	enc.Bool(p.cfg.Sketch)
	enc.I64(co.cm)
	enc.MapU64I64(co.cmx)
	// Each "all" report carries its threshold; none precedes the first S.m.
	enc.I64(min(co.sm, 1) * (co.cm - co.sm) / p.threshold(p.sites[0]))
	enc.I64(int64(co.rounds))
	for _, s := range p.sites {
		enc.I64(s.m)
		enc.I64(s.dm)
		if p.cfg.Sketch {
			encodeSS(enc, s.ss.State())
			enc.MapU64I64(s.lastRep)
			continue
		}
		sorted := s.tab.Sorted()
		encodeColumn(enc, sorted, func(c counts) int64 { return c.local })
		encodeColumn(enc, sorted, func(c counts) int64 { return c.dx })
	}
}

// DecodeState rebuilds the policy state on a fresh tracker; on error the
// tracker must be discarded.
func (p *policy) DecodeState(dec *ckpt.Decoder) error {
	if dec.PeekU8() == storeMisraGries {
		return errors.New("hh: restore: checkpoint holds Misra–Gries site sketches, a store hh no longer has")
	}
	if sketch := dec.Bool(); dec.Err() == nil && sketch != p.cfg.Sketch {
		return fmt.Errorf("hh: restore: checkpoint has Sketch %t, tracker %t", sketch, p.cfg.Sketch)
	}
	co := &p.coord
	co.cm = dec.I64()
	co.cmx = dec.MapU64I64()
	dec.I64() // the "all" reports since S.m
	co.rounds = int(dec.I64())
	for i, s := range p.sites {
		s.m = dec.I64()
		s.dm = dec.I64()
		if !p.cfg.Sketch {
			for x, c := range dec.MapU64I64() {
				s.tab.Get(x).Val.local = c
			}
			for x, d := range dec.MapU64I64() {
				s.tab.Get(x).Val.dx = d
			}
			continue
		}
		ss, err := decodeSS(dec)
		if err != nil {
			return fmt.Errorf("hh: restore site %d: %w", i, err)
		}
		s.ss, s.lastRep = ss, dec.MapU64I64()
	}
	if err := dec.Err(); err != nil {
		return err
	}
	co.sm = p.sites[0].m
	for j, s := range p.sites {
		if s.m != co.sm {
			return fmt.Errorf("hh: restore: site %d holds S.m %d, site 0 %d: one broadcast writes every site", j, s.m, co.sm)
		}
	}
	if co.sm < 0 || co.sm > co.cm {
		return fmt.Errorf("hh: restore: S.m %d outside [0, C.m %d]: a broadcast sends C.m, which only grows", co.sm, co.cm)
	}
	return nil
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

func decodeSS(dec *ckpt.Decoder) (*spacesaving.Sketch, error) {
	var st spacesaving.State
	st.Cap = int(dec.I64())
	st.N = dec.I64()
	n := dec.Count(24)
	if err := dec.Err(); err != nil {
		return nil, err
	}
	st.Entries = make([]spacesaving.Entry, n)
	for i := range st.Entries {
		st.Entries[i] = spacesaving.Entry{Item: dec.U64(), Count: dec.I64(), Err: dec.I64()}
	}
	if err := dec.Err(); err != nil {
		return nil, err
	}
	return spacesaving.FromState(st)
}
