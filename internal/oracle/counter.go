package oracle

import (
	"math"
	"slices"
)

// Counter counts arrivals drawn from a key set fixed in advance, in
// O(log n) per Add and per CountRange (a Fenwick tree over the sorted
// keys) and O(distinct) per HeavyHitters. It serves checks that read after
// every arrival, where an Oracle's first read after an Add re-settles all
// its distinct keys.
type Counter struct {
	keys   []uint64 // ascending, distinct
	tree   []int64  // Fenwick tree over keys, 1-based
	counts []int64  // arrivals per key, parallel to keys
	n      int64    // arrivals in all
}

// NewCounter returns an empty counter for arrivals drawn from universe.
func NewCounter(universe []uint64) *Counter {
	keys := slices.Compact(slices.Sorted(slices.Values(universe)))
	return &Counter{keys: keys, tree: make([]int64, len(keys)+1), counts: make([]int64, len(keys))}
}

// Add records one arrival of x, which must be one of the universe's keys.
func (c *Counter) Add(x uint64) {
	i, ok := slices.BinarySearch(c.keys, x)
	if !ok {
		panic("oracle: Counter.Add of a key outside its universe")
	}
	c.counts[i]++
	c.n++
	for i++; i < len(c.tree); i += i & -i {
		c.tree[i]++
	}
}

// Rank returns the number of arrivals strictly less than x.
func (c *Counter) Rank(x uint64) int64 {
	i, _ := slices.BinarySearch(c.keys, x)
	var r int64
	for ; i > 0; i -= i & -i {
		r += c.tree[i]
	}
	return r
}

// CountRange returns the number of arrivals in [lo, hi).
func (c *Counter) CountRange(lo, hi uint64) int64 {
	if hi <= lo {
		return 0
	}
	return c.Rank(hi) - c.Rank(lo)
}

// CountPart returns the number of arrivals in [lo, hi), or in [lo, hi] at
// hi = math.MaxUint64: the part of a partition of the uint64 universe that
// the quantile protocols' site stores count, whose last part holds
// math.MaxUint64 too.
func (c *Counter) CountPart(lo, hi uint64) int64 {
	n := c.CountRange(lo, hi)
	if hi == math.MaxUint64 {
		n += c.Count(hi)
	}
	return n
}

// Count returns the number of arrivals of x.
func (c *Counter) Count(x uint64) int64 {
	if i, ok := slices.BinarySearch(c.keys, x); ok {
		return c.counts[i]
	}
	return 0
}

// HeavyHitters returns the exact set Hφ = {x : m_x >= φ|A|}, sorted, as
// Oracle.HeavyHitters does: only keys that arrived.
func (c *Counter) HeavyHitters(phi float64) []uint64 {
	if c.n == 0 {
		return nil
	}
	thresh := phi * float64(c.n)
	var out []uint64
	for i, m := range c.counts {
		if m > 0 && float64(m) >= thresh {
			out = append(out, c.keys[i])
		}
	}
	return out
}
