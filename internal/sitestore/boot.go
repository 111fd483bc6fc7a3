package sitestore

import (
	"fmt"
	"slices"

	"disttrack/internal/ckpt"
)

// BootList is the coordinator's exact list of the arrivals a rank kind
// forwards while it bootstraps, held in arrival order until a read sorts it
// in place. So a read needs the same exclusive access as Add: the trackers
// run queries under the quiescent lock set. The zero value is empty.
type BootList struct {
	keys   []uint64
	sorted bool
}

// Add forwards one arrival into the list.
func (b *BootList) Add(x uint64) {
	b.keys = append(b.keys, x)
	b.sorted = false
}

// Keys returns the arrivals held, in ascending order. The slice is the
// list's own: callers must not change it.
func (b *BootList) Keys() []uint64 {
	if !b.sorted {
		slices.Sort(b.keys)
		b.sorted = true
	}
	return b.keys
}

// RankOf returns the number of arrivals held below x.
func (b *BootList) RankOf(x uint64) int64 {
	r, _ := slices.BinarySearch(b.Keys(), x)
	return int64(r)
}

// Select returns the arrival of rank ⌊φn⌋ among the n held (the largest at
// φ = 1). With none held it panics if arrivals, the engine's count so far,
// is 0, and otherwise returns 0: every arrival counted is still in flight to
// its escalation (the engine counts one on the fast path, the list takes it
// only in its escalation, and a quiescent query may run in between).
func (b *BootList) Select(phi float64, arrivals int64) uint64 {
	keys := b.Keys()
	if len(keys) == 0 {
		if arrivals == 0 {
			panic("quantile query before any arrival")
		}
		return 0
	}
	return keys[min(int(phi*float64(len(keys))), len(keys)-1)]
}

// Drop empties the list at the handoff: only bootstrap reads use it.
func (b *BootList) Drop() { b.keys, b.sorted = nil, true }

// Encode appends the list to enc, sorted, as one U64s.
func (b *BootList) Encode(enc *ckpt.Encoder) { enc.U64s(b.Keys()) }

// Decode replaces the list with one written by Encode, refusing keys out of
// order: Encode writes them sorted.
func (b *BootList) Decode(dec *ckpt.Decoder) error {
	keys := dec.U64s()
	if err := dec.Err(); err != nil {
		return err
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return fmt.Errorf("bootstrap items out of order at %d", i)
		}
	}
	b.keys, b.sorted = keys, true
	return nil
}
