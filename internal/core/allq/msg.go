package allq

import (
	"slices"

	"disttrack/internal/wire"
)

// Round-build and rebuild messages as values. A build's tree and counts
// travel as the words these functions write, and the meter records their
// length (wire.Meter's UpMsg and DownMsg). The bitmaps are wire.AppendBits',
// the "rb-counts" reply sitestore.EncodeRanks' and a leaf split's four
// messages sitestore.Split's (docs/architecture.md, "What the rank kinds
// share").

// appendShape appends the preorder shape bitmap of nodes, a subtree in
// preorder: bit i is set when the i-th node is internal, ⌈N/64⌉ words for N
// nodes. A full binary tree of N nodes takes N bits, so the bitmap ends
// where the tree is complete.
func appendShape(dst []uint64, nodes []*node) []uint64 {
	return wire.AppendBits(dst, len(nodes), func(i int) bool { return !nodes[i].isLeaf() })
}

// encodeSubtree appends to dst the "rb-tree" broadcast of the subtree u to
// a site that holds none of it: the preorder shape bitmap, followed by the
// split of every internal node in preorder. That is I + ⌈N/64⌉ words for N
// nodes, I of them internal. A site mirrors the tree and knows the replaced
// node's [lo, hi) from "rb-req" (the whole universe at the handoff and when
// it joins), so the splits give it every interval, and it renumbers the
// live tree in preorder as gcDeltas does, so no id is sent. A round's
// broadcast puts m′ first (dst), and a joining site's h_r after it.
func encodeSubtree(dst []uint64, u *node) []uint64 {
	nodes := collectNodes(u)
	words := appendShape(slices.Grow(dst, (len(nodes)+63)/64+len(nodes)/2), nodes)
	for _, v := range nodes {
		if !v.isLeaf() {
			words = append(words, v.split)
		}
	}
	return words
}

// encodeMerge appends to dst the "rb-tree" broadcast of a round merged from
// the old leaves, to a site that holds the old tree, whose inner leaf
// boundaries (every leaf's lo but the first) are inner: a bitmap over inner,
// ⌈(L−1)/64⌉ words, whose bit i is set when inner[i] is a leaf boundary of
// the new tree root, and root's preorder shape bitmap after it, ⌈N/64⌉
// words. Every split of the new tree is a kept boundary, the one between its
// left subtree's last leaf and its right subtree's first, so the shape
// places them all. The round's m′ goes first (dst).
func encodeMerge(dst, inner []uint64, root *node) []uint64 {
	kept := leafBounds(root)
	kept = kept[1 : len(kept)-1] // the new tree's inner leaf boundaries, a subsequence of inner
	words := wire.AppendBits(dst, len(inner), func(i int) bool {
		if len(kept) > 0 && kept[0] == inner[i] {
			kept = kept[1:]
			return true
		}
		return false
	})
	return appendShape(words, collectNodes(root))
}
