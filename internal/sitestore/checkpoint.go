package sitestore

import (
	"fmt"

	"disttrack/internal/ckpt"
	"disttrack/internal/summary/gk"
)

// Store serialization for engine checkpoints. The exact store round-trips
// through its sorted item dump: its answers are content-determined, so a
// store that adopts the sorted items as its single run is observationally
// identical to the captured one, however that one's runs were cut.

const (
	storeKindExact = uint8(0)
	storeKindGK    = uint8(1)
)

// Encode appends s's state to enc.
func Encode(enc *ckpt.Encoder, s Store) {
	switch st := s.(type) {
	case *exactStore:
		enc.U8(storeKindExact)
		enc.U64s(st.items())
	case *gkStore:
		enc.U8(storeKindGK)
		encodeGK(enc, st.sum.State())
	default:
		panic(fmt.Sprintf("sitestore: cannot encode store type %T", s))
	}
}

// Decode rebuilds a store written by Encode. It validates everything it
// reads and never panics on corrupt input.
func Decode(dec *ckpt.Decoder) (Store, error) {
	switch kind := dec.U8(); kind {
	case storeKindExact:
		items := dec.U64s()
		if err := dec.Err(); err != nil {
			return nil, err
		}
		for i := 1; i < len(items); i++ {
			if items[i] < items[i-1] {
				return nil, fmt.Errorf("sitestore: restore: exact items out of order at %d", i)
			}
		}
		s := &exactStore{n: len(items)}
		if len(items) > 0 {
			run := getRun(len(items))
			copy(run, items)
			s.runs = [][]uint64{run}
		}
		return s, nil
	case storeKindGK:
		st, err := decodeGK(dec)
		if err != nil {
			return nil, err
		}
		sum, err := gk.FromState(st)
		if err != nil {
			return nil, err
		}
		return &gkStore{sum: sum}, nil
	default:
		if err := dec.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("sitestore: restore: unknown store kind %d", kind)
	}
}

func encodeGK(enc *ckpt.Encoder, st gk.State) {
	enc.F64(st.Eps)
	enc.I64(st.N)
	enc.I64(int64(st.Pending))
	enc.U32(uint32(len(st.Tuples)))
	for _, t := range st.Tuples {
		enc.U64(t.V)
		enc.I64(t.G)
		enc.I64(t.D)
	}
}

func decodeGK(dec *ckpt.Decoder) (gk.State, error) {
	var st gk.State
	st.Eps = dec.F64()
	st.N = dec.I64()
	st.Pending = int(dec.I64())
	n := dec.Count(24)
	if err := dec.Err(); err != nil {
		return st, err
	}
	st.Tuples = make([]gk.Tuple, n)
	for i := range st.Tuples {
		st.Tuples[i] = gk.Tuple{V: dec.U64(), G: dec.I64(), D: dec.I64()}
	}
	return st, dec.Err()
}
