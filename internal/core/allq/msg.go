package allq

import "disttrack/internal/sitestore"

// Round-build and rebuild messages as values. A build's tree and counts
// travel as the words these functions write, and the meter records their
// length.

// up meters site j's reply of the given kind, words long.
func (p *policy) up(j int, kind string, words []uint64) {
	p.eng.Meter().Up(j, kind, len(words))
	if p.tap != nil {
		p.tap(kind, j, words)
	}
}

// down meters a coordinator message of the given kind to site j.
func (p *policy) down(j int, kind string, words []uint64) {
	p.eng.Meter().Down(j, kind, len(words))
	if p.tap != nil {
		p.tap(kind, j, words)
	}
}

// appendShape appends the preorder shape bitmap of nodes, a subtree in
// preorder: bit i of word i/64 is set when the i-th node is internal,
// ⌈N/64⌉ words for N nodes. A full binary tree of N nodes takes N bits, so
// the bitmap ends where the tree is complete.
func appendShape(dst []uint64, nodes []*node) []uint64 {
	n := len(dst)
	dst = append(dst, make([]uint64, (len(nodes)+63)/64)...)
	for i, v := range nodes {
		if !v.isLeaf() {
			dst[n+i/64] |= 1 << (i % 64)
		}
	}
	return dst
}

// encodeSubtree returns the "rb-tree" broadcast of the subtree u to a site
// that holds none of it: the preorder shape bitmap, followed by the split of
// every internal node in preorder. That is I + ⌈N/64⌉ words for N nodes, I
// of them internal. A site mirrors the tree and knows the replaced node's
// [lo, hi) from "rb-req" (the whole universe at the handoff and when it
// joins), so the splits give it every interval, and it renumbers the live
// tree in preorder as gcDeltas does, so no id is sent.
func encodeSubtree(u *node) []uint64 {
	nodes := collectNodes(u)
	words := appendShape(make([]uint64, 0, (len(nodes)+63)/64+len(nodes)/2), nodes)
	for _, v := range nodes {
		if !v.isLeaf() {
			words = append(words, v.split)
		}
	}
	return words
}

// encodeMerge returns the "rb-tree" broadcast of a round merged from the old
// leaves, to a site that holds the old tree, whose inner leaf boundaries
// (every leaf's lo but the first) are inner: bit i of the first
// ⌈(L−1)/64⌉ words is set when inner[i] is a leaf boundary of the new tree
// root, and root's preorder shape bitmap follows, ⌈N/64⌉ words. Every split
// of the new tree is a kept boundary, the one between its left subtree's
// last leaf and its right subtree's first, so the shape places them all.
func encodeMerge(inner []uint64, root *node) []uint64 {
	nodes := collectNodes(root)
	words := make([]uint64, (len(inner)+63)/64, (len(inner)+63)/64+(len(nodes)+63)/64)
	i := 0
	for _, u := range nodes {
		if !u.isLeaf() || u.lo == 0 {
			continue
		}
		for inner[i] != u.lo {
			i++
		}
		words[i/64] |= 1 << (i % 64)
	}
	return appendShape(words, nodes)
}

// encodeRanks appends a site's "rb-counts" reply: its rank at each of
// bounds, one word each. A rebuild asks for every leaf boundary of the
// subtree it built, L + 1 words for L leaves; a round for every old leaf
// boundary but the first, L words (the rank at 0 is 0), whose last word,
// the rank at the universe's end, is the site's count.
func encodeRanks(dst []uint64, st sitestore.Store, bounds []uint64) []uint64 {
	for _, b := range bounds {
		dst = append(dst, uint64(st.RankOf(b)))
	}
	return dst
}

// decodeRanks returns the ranks of an "rb-counts" reply.
func decodeRanks(words []uint64) []int64 {
	r := make([]int64, len(words))
	for i, w := range words {
		r[i] = int64(w)
	}
	return r
}
