// Package oracle maintains the exact global state of the tracked stream —
// the ground truth the paper's approximation guarantees are stated against.
//
// Every tracker test feeds the same arrivals to the tracker and to an Oracle
// and checks, at each prefix (the "at all times" part of the guarantee),
// that the tracker's answers are within the promised ε of the oracle's.
package oracle

import (
	"slices"
	"sort"
)

// Oracle holds the exact multiset A(t). Add only counts; the first rank or
// quantile read after it brings the sorted view up to date in O(distinct),
// so an Oracle is not safe for concurrent use, reads included.
type Oracle struct {
	counts map[uint64]int64
	n      int64

	// The sorted view as of the last read: ascending distinct keys and, for
	// each, the number of items below it. fresh stages the keys first seen
	// since then; settledN is n at that read.
	keys     []uint64
	below    []int64
	fresh    []uint64
	settledN int64
}

// New returns an empty oracle.
func New() *Oracle {
	return &Oracle{counts: make(map[uint64]int64)}
}

// Add records one arrival of x.
func (o *Oracle) Add(x uint64) {
	c := o.counts[x]
	if c == 0 {
		o.fresh = append(o.fresh, x)
	}
	o.counts[x] = c + 1
	o.n++
}

// settle merges the staged keys into keys and recounts below.
func (o *Oracle) settle() {
	if o.settledN == o.n {
		return
	}
	if len(o.fresh) > 0 {
		slices.Sort(o.fresh)
		o.keys = mergeDisjoint(o.keys, o.fresh)
		o.fresh = nil // released, so each distinct key is held once
	}
	o.below = slices.Grow(o.below[:0], len(o.keys))[:len(o.keys)]
	var acc int64
	for i, x := range o.keys {
		o.below[i] = acc
		acc += o.counts[x]
	}
	o.settledN = o.n
}

// mergeDisjoint merges the ascending add into the ascending keys, which hold
// none of its values, in place from the back.
func mergeDisjoint(keys, add []uint64) []uint64 {
	i := len(keys) - 1
	keys = slices.Grow(keys, len(add))[:len(keys)+len(add)]
	for j, w := len(add)-1, len(keys)-1; j >= 0; w-- {
		if i >= 0 && keys[i] > add[j] {
			keys[w] = keys[i]
			i--
		} else {
			keys[w] = add[j]
			j--
		}
	}
	return keys
}

// Len returns |A|.
func (o *Oracle) Len() int64 { return o.n }

// Count returns m_x(A), the exact frequency of x.
func (o *Oracle) Count(x uint64) int64 { return o.counts[x] }

// Rank returns the exact number of items strictly less than x.
func (o *Oracle) Rank(x uint64) int64 {
	o.settle()
	i, _ := slices.BinarySearch(o.keys, x)
	if i == len(o.keys) {
		return o.n
	}
	return o.below[i]
}

// HeavyHitters returns the exact set Hφ = {x : m_x >= φ|A|}, sorted.
func (o *Oracle) HeavyHitters(phi float64) []uint64 {
	if o.n == 0 {
		return nil
	}
	thresh := phi * float64(o.n)
	var out []uint64
	for x, c := range o.counts {
		if float64(c) >= thresh {
			out = append(out, x)
		}
	}
	slices.Sort(out)
	return out
}

// Quantile returns the exact φ-quantile: the item of rank ⌊φ·|A|⌋ in sorted
// order (0-based), clamped to the ends — an item with at most φ|A| items
// smaller and at most (1−φ)|A| greater. It panics on an empty oracle.
func (o *Oracle) Quantile(phi float64) uint64 {
	if o.n == 0 {
		panic("oracle: Quantile of empty multiset")
	}
	i := int64(phi * float64(o.n))
	if i < 0 {
		i = 0
	}
	if i >= o.n {
		i = o.n - 1
	}
	o.settle()
	// The key holding rank i is the last one with fewer than i+1 items below.
	return o.keys[sort.Search(len(o.below), func(j int) bool { return o.below[j] > i })-1]
}

// QuantileRankError returns |rank(x) − φ|A|| as a fraction of |A| — the
// quantity the ε-approximate quantile guarantee bounds. For x's with
// duplicates, the most favourable rank in [rank(x), rank(x)+count(x)] is
// used, matching the definition "at most φ|A| items smaller, at most
// (1−φ)|A| items greater".
func (o *Oracle) QuantileRankError(x uint64, phi float64) float64 {
	if o.n == 0 {
		return 0
	}
	lo := float64(o.Rank(x))          // items < x
	hi := lo + float64(o.counts[x])   // items <= x
	target := phi * float64(o.n)      // ideal rank
	if target >= lo && target <= hi { // target falls inside x's run
		return 0
	}
	err := lo - target
	if target > hi {
		err = target - hi
	}
	return err / float64(o.n)
}
