// Package rank implements an order-statistics multiset over uint64 keys,
// backed by a treap with subtree sizes.
//
// It backs the exact references: the coordinator's bootstrap tree in the
// quantile trackers, internal/oracle and internal/baseline. The queries are
// the ones the paper's quantile protocols ask (§3.1 and §4) — the rank of a
// value, the count of items inside an interval, and evenly spaced "separating
// items" of an interval. All of these are O(log n) here, and Separators(g) is
// O((c/g)·log n) for an interval holding c items. (The per-site stores, which
// insert far more often than they are asked anything, live in
// internal/sitestore.)
//
// Duplicate keys are supported via per-node multiplicities, although the
// paper's quantile protocols assume (symbolically perturbed) distinct items;
// see stream.Perturb.
package rank

// Tree is an order-statistics multiset. The zero value is NOT ready to use;
// construct with New. Tree is not safe for concurrent use.
type Tree struct {
	root *node
	rng  uint64 // splitmix64 state for priorities; explicit seed → deterministic
}

type node struct {
	key         uint64
	prio        uint64
	cnt         int // multiplicity of key
	size        int // total items (with multiplicity) in subtree
	left, right *node
}

// New returns an empty tree whose internal balancing priorities are derived
// deterministically from seed.
func New(seed int64) *Tree {
	return &Tree{rng: uint64(seed)*0x9E3779B97F4A7C15 + 0x1234567890ABCDEF}
}

func (t *Tree) nextPrio() uint64 {
	// splitmix64
	t.rng += 0x9E3779B97F4A7C15
	z := t.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func size(n *node) int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *node) fix() { n.size = n.cnt + size(n.left) + size(n.right) }

// split partitions n into (< key) and (>= key).
func split(n *node, key uint64) (l, r *node) {
	if n == nil {
		return nil, nil
	}
	if n.key < key {
		n.right, r = split(n.right, key)
		n.fix()
		return n, r
	}
	l, n.left = split(n.left, key)
	n.fix()
	return l, n
}

func merge(l, r *node) *node {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio > r.prio:
		l.right = merge(l.right, r)
		l.fix()
		return l
	default:
		r.left = merge(l, r.left)
		r.fix()
		return r
	}
}

// Len returns the number of items (with multiplicity).
func (t *Tree) Len() int { return size(t.root) }

// Insert adds one occurrence of key.
func (t *Tree) Insert(key uint64) { t.InsertN(key, 1) }

// InsertN adds n occurrences of key; n must be positive.
func (t *Tree) InsertN(key uint64, n int) {
	if n <= 0 {
		panic("rank: InsertN with non-positive count")
	}
	// Fast path: key already present.
	if nd := t.find(key); nd != nil {
		nd.cnt += n
		t.bubbleSizes(key, n)
		return
	}
	nn := &node{key: key, prio: t.nextPrio(), cnt: n, size: n}
	l, r := split(t.root, key)
	t.root = merge(merge(l, nn), r)
}

// bubbleSizes adds delta to the size of every node on the search path to key.
func (t *Tree) bubbleSizes(key uint64, delta int) {
	for n := t.root; n != nil; {
		n.size += delta
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			return
		}
	}
}

func (t *Tree) find(key uint64) *node {
	for n := t.root; n != nil; {
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			return n
		}
	}
	return nil
}

// Delete removes one occurrence of key, reporting whether it was present.
func (t *Tree) Delete(key uint64) bool {
	nd := t.find(key)
	if nd == nil {
		return false
	}
	if nd.cnt > 1 {
		nd.cnt--
		t.bubbleSizes(key, -1)
		return true
	}
	t.root = deleteNode(t.root, key)
	return true
}

func deleteNode(n *node, key uint64) *node {
	if n == nil {
		return nil
	}
	switch {
	case key < n.key:
		n.left = deleteNode(n.left, key)
	case key > n.key:
		n.right = deleteNode(n.right, key)
	default:
		return merge(n.left, n.right)
	}
	n.fix()
	return n
}

// Count returns the multiplicity of key.
func (t *Tree) Count(key uint64) int {
	if nd := t.find(key); nd != nil {
		return nd.cnt
	}
	return 0
}

// Rank returns the number of items strictly less than key.
func (t *Tree) Rank(key uint64) int {
	r := 0
	for n := t.root; n != nil; {
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			r += size(n.left) + n.cnt
			n = n.right
		default:
			return r + size(n.left)
		}
	}
	return r
}

// CountRange returns the number of items x with lo <= x < hi.
func (t *Tree) CountRange(lo, hi uint64) int {
	if hi <= lo {
		return 0
	}
	return t.Rank(hi) - t.Rank(lo)
}

// Select returns the i-th smallest item (0-based, counting multiplicity).
// It panics if i is out of range.
func (t *Tree) Select(i int) uint64 {
	if i < 0 || i >= t.Len() {
		panic("rank: Select out of range")
	}
	n := t.root
	for {
		ls := size(n.left)
		switch {
		case i < ls:
			n = n.left
		case i < ls+n.cnt:
			return n.key
		default:
			i -= ls + n.cnt
			n = n.right
		}
	}
}

// Min returns the smallest item; ok is false if the tree is empty.
func (t *Tree) Min() (key uint64, ok bool) {
	n := t.root
	if n == nil {
		return 0, false
	}
	for n.left != nil {
		n = n.left
	}
	return n.key, true
}

// Max returns the largest item; ok is false if the tree is empty.
func (t *Tree) Max() (key uint64, ok bool) {
	n := t.root
	if n == nil {
		return 0, false
	}
	for n.right != nil {
		n = n.right
	}
	return n.key, true
}

// Separators returns the items of ranks step-1, 2*step-1, ... within the
// restriction of the multiset to [lo, hi), i.e. it cuts that interval's
// items into chunks of step items and returns the item closing each chunk.
// Any value x in [lo,hi) then has its interval-local rank determined within
// step by the returned list. step must be positive.
func (t *Tree) Separators(lo, hi uint64, step int) []uint64 {
	if step <= 0 {
		panic("rank: Separators with non-positive step")
	}
	base := t.Rank(lo)
	total := t.Rank(hi) - base
	if total <= 0 {
		return nil
	}
	seps := make([]uint64, 0, total/step)
	for r := step - 1; r < total; r += step {
		seps = append(seps, t.Select(base+r))
	}
	return seps
}

// Items returns all items in sorted order, repeating multiplicities.
// Intended for tests and small collections.
func (t *Tree) Items() []uint64 {
	out := make([]uint64, 0, t.Len())
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		walk(n.left)
		for i := 0; i < n.cnt; i++ {
			out = append(out, n.key)
		}
		walk(n.right)
	}
	walk(t.root)
	return out
}
