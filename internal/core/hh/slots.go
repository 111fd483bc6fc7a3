package hh

import (
	"cmp"
	"math/bits"
	"math/rand/v2"
	"slices"
)

// slot is one item's exact-mode state at a site: the local frequency
// m_{x,j} and the unreported increment Δ(m_x).
type slot struct {
	key   uint64
	local int64
	dx    int64
}

// slotTable is a site's exact-mode store: an open-addressed hash table with
// linear probing, power-of-two capacity and keys stored inline, so an
// arrival updates m_{x,j} and Δ(m_x) with one probe. Key 0 marks an empty
// slot, so item 0 keeps its slot aside in zero. Slots are never deleted (a
// report sets dx to 0), so probe chains need no tombstones. The zero value
// is an empty table with hash seed 0; newSlotTable draws a random seed, so
// which of a tenant's values share a probe chain is not fixed by the values
// alone.
type slotTable struct {
	slots   []slot
	seed    uint64 // xored into every key before hashing
	shift   uint   // 64 − log2(len(slots)): the hash's top bits pick the home slot
	used    int    // occupied entries of slots (item 0 not counted)
	limit   int    // grow once used reaches this (3/4 of len(slots))
	zero    slot   // item 0's slot, meaningful when hasZero
	hasZero bool
}

// minSlots is the capacity of a table's first allocation.
const minSlots = 64

// fib is 2^64/φ: multiplicative (Fibonacci) hashing keeps sequential and
// strided keys spread across the top bits.
const fib = 0x9E3779B97F4A7C15

func newSlotTable() slotTable { return slotTable{seed: rand.Uint64()} }

func (t *slotTable) home(x uint64) uint64 { return ((x ^ t.seed) * fib) >> t.shift }

// get returns x's slot, inserting a zeroed one if x is new. The pointer is
// valid until the next insertion.
func (t *slotTable) get(x uint64) *slot {
	if x == 0 {
		t.hasZero = true
		return &t.zero
	}
	if t.used >= t.limit {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(x); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == x {
			return s
		}
		if s.key == 0 {
			s.key = x
			t.used++
			return s
		}
	}
}

// find returns x's slot, or nil if x has never been inserted.
func (t *slotTable) find(x uint64) *slot {
	if x == 0 {
		if t.hasZero {
			return &t.zero
		}
		return nil
	}
	if len(t.slots) == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(x); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == x {
			return s
		}
		if s.key == 0 {
			return nil
		}
	}
}

// grow doubles the capacity (or makes the first allocation) and rehashes.
func (t *slotTable) grow() {
	old := t.slots
	n := max(2*len(old), minSlots)
	t.slots = make([]slot, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	t.limit = n - n/4
	mask := uint64(n - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// all yields every inserted slot, item 0's included, in table order; use it
// as `for s := range t.all`. The yielded pointers may be written but the
// table must not be inserted into during the walk.
func (t *slotTable) all(yield func(*slot) bool) {
	if t.hasZero && !yield(&t.zero) {
		return
	}
	for i := range t.slots {
		if t.slots[i].key != 0 && !yield(&t.slots[i]) {
			return
		}
	}
}

// sorted returns a copy of every inserted slot in ascending key order.
func (t *slotTable) sorted() []slot {
	out := make([]slot, 0, t.used+1)
	for s := range t.all {
		out = append(out, *s)
	}
	slices.SortFunc(out, func(a, b slot) int { return cmp.Compare(a.key, b.key) })
	return out
}

// space counts the table's nonzero counters: items with a nonzero local
// frequency plus items with a nonzero pending Δ(m_x), one per entry the
// checkpoint writes.
func (t *slotTable) space() int {
	n := 0
	for s := range t.all {
		if s.local != 0 {
			n++
		}
		if s.dx != 0 {
			n++
		}
	}
	return n
}
