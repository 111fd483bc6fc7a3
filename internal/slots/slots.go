// Package slots is an open-addressed hash table from uint64 keys to small
// fixed-size values, built for the per-arrival state on the ingest path: an
// hh site's exact counters, a tenant's perturbation counters. An update is
// one probe and no allocation, where a Go map costs a lookup plus an assign.
package slots

import (
	"cmp"
	"math/bits"
	"math/rand/v2"
	"slices"
)

// Slot is one key's entry. Val is the caller's to read and write.
type Slot[V any] struct {
	Key uint64
	Val V
}

// Table is a linear-probing hash table with power-of-two capacity and keys
// stored inline. Key 0 marks an empty slot, so key 0 keeps its slot aside in
// zero. Slots are never deleted (callers zero Val instead), so probe chains
// need no tombstones. The zero value is an empty table with hash seed 0; New
// draws a random seed, so which keys share a probe chain is not fixed by the
// keys alone — keys here are chosen by clients.
type Table[V any] struct {
	slots   []Slot[V]
	seed    uint64 // xored into every key before hashing
	shift   uint   // 64 − log2(len(slots)): the hash's top bits pick the home slot
	used    int    // occupied entries of slots (key 0 not counted)
	limit   int    // grow once used reaches this (3/4 of len(slots))
	zero    Slot[V]
	hasZero bool
}

// minSlots is the capacity of a table's first allocation.
const minSlots = 64

// fib is 2^64/φ: multiplicative (Fibonacci) hashing keeps sequential and
// strided keys spread across the top bits.
const fib = 0x9E3779B97F4A7C15

// New returns an empty table with a random hash seed.
func New[V any]() Table[V] { return Table[V]{seed: rand.Uint64()} }

func (t *Table[V]) home(x uint64) uint64 { return ((x ^ t.seed) * fib) >> t.shift }

// Get returns x's slot, inserting one with a zero Val if x is new. The
// pointer is valid until the next insertion.
func (t *Table[V]) Get(x uint64) *Slot[V] {
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
		if s.Key == x {
			return s
		}
		if s.Key == 0 {
			s.Key = x
			t.used++
			return s
		}
	}
}

// Find returns x's slot, or nil if x has never been inserted.
func (t *Table[V]) Find(x uint64) *Slot[V] {
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
		if s.Key == x {
			return s
		}
		if s.Key == 0 {
			return nil
		}
	}
}

// Len returns the number of keys inserted.
func (t *Table[V]) Len() int {
	if t.hasZero {
		return t.used + 1
	}
	return t.used
}

// grow doubles the capacity (or makes the first allocation) and rehashes.
func (t *Table[V]) grow() {
	old := t.slots
	n := max(2*len(old), minSlots)
	t.slots = make([]Slot[V], n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	t.limit = n - n/4
	mask := uint64(n - 1)
	for _, s := range old {
		if s.Key == 0 {
			continue
		}
		i := t.home(s.Key)
		for t.slots[i].Key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// All yields every inserted slot, key 0's included, in table order; use it
// as `for s := range t.All`. The yielded pointers may be written but the
// table must not be inserted into during the walk.
func (t *Table[V]) All(yield func(*Slot[V]) bool) {
	if t.hasZero && !yield(&t.zero) {
		return
	}
	for i := range t.slots {
		if t.slots[i].Key != 0 && !yield(&t.slots[i]) {
			return
		}
	}
}

// Sorted returns a copy of every inserted slot in ascending key order.
func (t *Table[V]) Sorted() []Slot[V] {
	out := make([]Slot[V], 0, t.Len())
	for s := range t.All {
		out = append(out, *s)
	}
	slices.SortFunc(out, func(a, b Slot[V]) int { return cmp.Compare(a.Key, b.Key) })
	return out
}
