package oracle

import "slices"

// Counter counts arrivals drawn from a key set fixed in advance, in
// O(log n) per Add and per CountRange (a Fenwick tree over the sorted
// keys). It serves checks that read after every arrival, where an Oracle's
// first read after an Add re-settles all its distinct keys.
type Counter struct {
	keys []uint64 // ascending, distinct
	tree []int64  // Fenwick tree over keys, 1-based
}

// NewCounter returns an empty counter for arrivals drawn from universe.
func NewCounter(universe []uint64) *Counter {
	keys := slices.Compact(slices.Sorted(slices.Values(universe)))
	return &Counter{keys: keys, tree: make([]int64, len(keys)+1)}
}

// Add records one arrival of x, which must be one of the universe's keys.
func (c *Counter) Add(x uint64) {
	i, ok := slices.BinarySearch(c.keys, x)
	if !ok {
		panic("oracle: Counter.Add of a key outside its universe")
	}
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
