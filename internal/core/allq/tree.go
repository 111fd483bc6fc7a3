package allq

import (
	"math"
	"slices"
	"sort"

	"disttrack/internal/sitestore"
)

// checkConditions enforces the paper's maintenance rules after s_u changed:
//
//   - condition (6) on the parent edge (rebuild at the parent — the highest
//     node a single count change can newly violate),
//   - condition (6) on u's child edges (rebuild at u),
//   - the leaf split rule s_v > (ε/2 − θ)m (splitLeaf cuts the leaf in two).
//
// It reports whether the tree changed.
func (p *policy) checkConditions(u *node) bool {
	if par := u.parent; par != nil && violated(par, u) {
		p.rebuild(par)
		return true
	}
	if !u.isLeaf() && (violated(u, u.left) || violated(u, u.right)) {
		p.rebuild(u)
		return true
	}
	if u.isLeaf() && u.s > p.leafSplitAt {
		return p.splitLeaf(u)
	}
	return false
}

// violated reports whether condition (6) fails on edge (p, c):
// s_c must stay within [s_p/4, 3·s_p/4].
func violated(p, c *node) bool {
	return 4*c.s < p.s || 4*c.s > 3*p.s
}

// newRound starts a fresh round when |A| has doubled, the tree has outgrown
// its height cap or k has changed, from the leaves the coordinator already
// has. Sites [0, old) reply with their rank at each old leaf boundary but the
// first ("rb-counts", sitestore.EncodeRanks: a header word and the L rank
// differences for L leaves, packed at the width of the widest); sites
// from old on joined in a Reconfigure and hold nothing. The ranks give every
// old leaf's exact count (sitestore.AddCounts), and mergeRec cuts the old
// boundaries at weighted medians of those counts, so the fresh tree's splits
// are old boundaries and each node's s is exact with no further message: no
// site samples. startRound fixes the round's parameters from the tree's
// height, and the coordinator broadcasts m′, which boundaries the tree keeps
// and its shape ("rb-tree", encodeMerge), from which a site derives the
// round's batch as startRound does (roundHeight). A joining site holds no
// old tree, so it gets m′, h_r and the whole tree (encodeSubtree). Cost
// O(k/ε) words: L packed counts per site and 1 + ⌈L/64⌉ + ⌈N/64⌉ broadcast
// words (docs/architecture.md, "allq rounds merge, not resample").
func (p *policy) newRound(old int) {
	p.eng.All()
	meter := p.eng.Meter()
	bounds := leafBounds(p.root)
	leaves := len(bounds) - 1
	inner := bounds[1:leaves]
	ranks := make([][]int64, old)
	cum := make([]int64, leaves+1) // cum[i]: exact count of old leaves 0..i−1
	var m int64
	for j, s := range p.sites[:old] {
		meter.DownMsg(j, "round-req", nil)
		words := sitestore.EncodeRanks(nil, s.st, bounds[1:])
		meter.UpMsg(j, "rb-counts", words)
		r, err := sitestore.DecodeRanks(words, leaves)
		if err != nil {
			panic(err) // encoded just above: a codec bug
		}
		sitestore.AddCounts(cum[1:], r)
		m += r[leaves-1]
		ranks[j] = append([]int64{0}, r...)
	}
	for i := range leaves {
		cum[i+1] += cum[i]
	}
	p.m = m
	p.rounds++
	grown := height(p.root) // height the replaced tree reached within its round
	root := p.mergeRec(nil, bounds, cum, 0, leaves, p.leafCap())

	// Each fresh leaf boundary is an old one: read every site's rank there.
	fresh := leafBounds(root)
	at := make([]int, len(fresh))
	for t, i := 0, 0; t < len(fresh); t++ {
		for bounds[i] != fresh[t] {
			i++
		}
		at[t] = i
	}
	r := make([]int64, len(fresh))
	for _, rj := range ranks {
		for t, i := range at {
			r[t] = rj[i]
		}
		addCounts(root, r)
	}
	p.root = root
	p.gcDeltas()
	p.startRound(grown)
	merged := encodeMerge([]uint64{uint64(p.m)}, inner, root)
	joined := encodeSubtree([]uint64{uint64(p.m), uint64(p.h)}, root)
	for j := range p.sites {
		if j < old {
			meter.DownMsg(j, "rb-tree", merged)
		} else {
			meter.DownMsg(j, "rb-tree", joined)
		}
	}
	p.splitFull()
}

// startRound fixes the parameters of the round whose tree was just built,
// with exact counts, from its height (roundHeight) and m, grown being the
// height the replaced tree reached.
func (p *policy) startRound(grown int) {
	p.h = roundHeight(p.cfg.Eps, p.cfg.K, p.m, height(p.root), grown)
	p.theta, p.thrNode, p.leafSplitAt = roundParams(p.cfg.Eps, p.cfg.K, p.m, p.h)
}

// roundHeight returns the height cap h_r of a round of m arrivals over k
// sites whose tree was built built levels tall, after a tree that grew to
// grown: two levels of slack for the rebuilds and splits to come over
// balancedHeight, at least one over the built height and at least grown
// (skewed and sorted streams deepen the tree at their hot spots every round),
// in [minHeight, heightCap]. The slack does not count from the built height:
// a merge often leaves one node just over leafCap, a level deeper, and a few
// items of site lag decide whether it does. A shorter cap pays only if it
// raises the site batch θm/k: at the same batch, reports cost the same and the
// smaller leaf split trigger would only add splits. A site derives h_r the
// same way from the m′ a round's "rb-tree" carries and its own mirror of the
// tree.
func roundHeight(eps float64, k int, m int64, built, grown int) int {
	hCap := heightCap(eps)
	h := min(hCap, max(balancedHeight(eps)+2, built+1, grown, minHeight))
	_, thrCap, _ := roundParams(eps, k, m, hCap)
	if _, thr, _ := roundParams(eps, k, m, h); thr <= thrCap {
		h = hCap
	}
	return h
}

// balancedHeight returns ⌈log₂(8/3ε)⌉, the height of a build whose every cut
// halves its node, down to leaves of leafCap = 3εm/8 items.
func balancedHeight(eps float64) int { return int(math.Ceil(math.Log2(8 / (3 * eps)))) }

// splitFull splits, as a report-time leaf split does (splitLeaf), every leaf
// of a round just built that holds at least the split trigger: a round
// opened before |A| doubled (by the height cap or a Reconfigure) can keep an
// old leaf that full.
func (p *policy) splitFull() {
	var full []*node
	for _, u := range collectNodes(p.root) {
		if u.isLeaf() && u.s >= p.leafSplitAt {
			full = append(full, u)
		}
	}
	for _, u := range full {
		if attached(p.root, u) { // an earlier split's rebuild may have replaced it
			p.splitLeaf(u)
		}
	}
}

// attached reports whether u is still a node of the tree rooted at root.
func attached(root, u *node) bool {
	for ; u.parent != nil; u = u.parent {
		if u.parent.left != u && u.parent.right != u {
			return false
		}
	}
	return u == root
}

// leafBounds returns the leaf boundaries of the subtree u left to right: its
// lo, then each leaf's hi.
func leafBounds(u *node) []uint64 {
	bounds := []uint64{u.lo}
	for _, v := range collectNodes(u) {
		if v.isLeaf() {
			bounds = append(bounds, v.hi)
		}
	}
	return bounds
}

// minHeight is the smallest height cap a round uses. At h ≥ 6, θ ≤ ε/12, so
// a leaf built from εm/32k samples, at most 3εm/8 + εm/32 = 13εm/32 items,
// starts below its split trigger (ε/2 − θ)m ≥ 5εm/12, and so does a leaf a
// round merges from sketch sites' counts, at most 3εm/8 + θm/2 items; at
// h = 5 the trigger is 2εm/5, below 13εm/32. A tree built for ε < 1/3 is at
// least four levels tall (its leaves of at most 3εm/8 items hold all m, so
// there are more than 8), so the floor binds only above that.
const minHeight = 6

// restoreMinHeight is the smallest height cap a checkpoint may carry: the
// floor was 5 while rebuilds sampled at εm/64k. A round restored at h = 5
// stays sound because rebuild caps its step by the round's own leaf split
// trigger (rebuildStep), and a leaf split cuts a half at the trigger again.
const restoreMinHeight = 5

// roundParams derives a round's thresholds from its height cap h and its
// size m: θ = ε/2h, the per-node site batch θm/k and the leaf split trigger
// (ε/2 − θ)m.
func roundParams(eps float64, k int, m int64, h int) (theta float64, thrNode, leafSplitAt int64) {
	theta = eps / (2 * float64(h))
	thrNode = max(1, int64(theta*float64(m)/float64(k)))
	leafSplitAt = max(1, int64((eps/2-theta)*float64(m)))
	return theta, thrNode, leafSplitAt
}

// rebuildSampleDiv is the 32 of an internal rebuild's sampling step εm/32k,
// the sampling error's share of ε: the k sites' summed sampling error
// k·step = εm/32 stays within an eighth of the smallest weight 3εm/8 that
// buildSubtree splits, which keeps invariant (5), and a fresh leaf holds
// under 3εm/8 + εm/32 = 13εm/32 items, below its split trigger from
// minHeight up (docs/architecture.md, "allq rebuilds sample at εm/32k").
// At 16 the cut error εm/16 exceeds that eighth.
const rebuildSampleDiv = 32

// bootDiv is the 64 of the bootstrap target ⌈max(64, 2·heightCap)·k/ε⌉, a
// constant of its own: the target must not follow rebuildSampleDiv (see
// bootTarget).
const bootDiv = 64

// sampleStep is the separator sampling step εm/32k of an internal rebuild
// before rebuildStep's cap: fine enough that the weighted medians keep
// invariant (5) at every level of the subtree built.
func (p *policy) sampleStep() int64 {
	return max(1, int64(p.cfg.Eps*float64(p.m)/(rebuildSampleDiv*float64(p.cfg.K))))
}

// bootTarget returns ⌈max(64, 2·heightCap(ε))·k/ε⌉, the count at which the
// bootstrap hands off to the first round. The 2·heightCap term keeps the
// node batch θm/k at least one item at every height cap a round may use
// (θ = ε/2h, h ≤ heightCap): below it a tracked arrival reports at every
// level of its path, where forwarding costs one word. The 64 (bootDiv) was
// the floor of the rebuild step εm/64k the handoff build sampled at; that
// build now cuts the bootstrap list (OnBootDone). It is derived from the
// config, never stored.
func (p *policy) bootTarget() int64 {
	c := max(bootDiv, 2*heightCap(p.cfg.Eps))
	return int64(math.Ceil(float64(c) * float64(p.cfg.K) / p.cfg.Eps))
}

// leafCap is the weight 3εm/8 up to which a build leaves an interval as
// one leaf: sampled in buildSubtree, exact in mergeRec and at the handoff.
func (p *policy) leafCap() int64 {
	return max(1, int64(3*p.cfg.Eps*float64(p.m)/8))
}

// rebuildStep is the sampling step of a rebuild within the current round:
// sampleStep, capped so that k·step ≤ leafSplitAt − leafCap and every fresh
// leaf starts below its trigger. From minHeight up the cap binds only while
// εm < 96 (leafSplitAt − leafCap ≥ εm/24 − 1 there); it is what keeps a
// round restored at restoreMinHeight sound.
func (p *policy) rebuildStep() int64 {
	return min(p.sampleStep(), max(1, (p.leafSplitAt-p.leafCap())/int64(p.cfg.K)))
}

// enforceHeight keeps depth ≤ h after a structural change: a tree that
// outgrew its cap is rebuilt in a new round, whose cap covers the height
// this one reached. Rank error sums at most one θm error per level of the
// path, so the cap is what the ε bound rests on.
func (p *policy) enforceHeight() {
	if height(p.root) > p.h {
		p.heightRebuilds++
		p.newRound(len(p.sites))
	}
}

// rebuild replaces the subtree rooted at u, an internal node — the paper's
// partial rebuilding, sampled at rebuildStep. Cost O(k·|A ∩ I_u|/(εm) +
// k·h) words.
func (p *policy) rebuild(u *node) {
	p.eng.All()
	fresh := p.buildSubtree(u.parent, u.lo, u.hi, p.rebuildStep())
	if par := u.parent; par == nil {
		p.root = fresh
	} else if par.left == u {
		par.left = fresh
	} else {
		par.right = fresh
	}
	p.rebuilds++
	p.gcDeltas()
	p.restoreUp(fresh)
}

// restoreUp restores condition (6) above u, whose count a rebuild or a leaf
// split just set exact: an exact count can only raise an underestimate,
// which can newly violate u's parent edge, and a rebuild there its own.
func (p *policy) restoreUp(u *node) {
	for par := u.parent; par != nil; par = par.parent {
		if violated(par, u) {
			p.rebuild(par)
			return
		}
		u = par
	}
}

// splitLeaf is the leaf split (docs/architecture.md, "allq leaf splits cut
// at a median of medians"): it cuts leaf u in two, and each half again
// while it holds leafSplitAt or more (cut), then restores condition (6)
// above u as rebuild does. It reports whether the tree changed: ties can
// defeat the cut.
func (p *policy) splitLeaf(u *node) bool {
	if !p.cut(u) {
		return false
	}
	p.restoreUp(u)
	return true
}

// cut turns leaf u into an internal node over two fresh leaves by
// sitestore.Split, the median-of-medians cut quantile's split makes: the
// coordinator names u by its preorder id ("split-req", 1 word; a site's
// mirror is numbered as gcDeltas numbers the tree), each site sends its
// count n_j in u and its lower local median there, the coordinator cuts at
// the n_j-weighted median y ("split-apply", y alone: a site finds u by
// walking y's path), and each site sends its count a_j left of y. Every
// count it sets is exact: u's is Σ n_j and its halves' Σ a_j and
// Σ (n_j − a_j), so every site's pending delta at u is zeroed. A half still
// at or over leafSplitAt is cut again. Each half holds at most 3N/4 + k of
// u's N items, under leafSplitAt from restoreMinHeight up once εm/40 > k,
// which m ≥ bootTarget gives. Cost O(k) words. When ties leave no cut
// strictly inside u, it counts cannotSplit and leaves u a fat leaf.
func (p *policy) cut(u *node) bool {
	p.eng.All()
	y, left, right, ok := sitestore.Split{
		Lo: u.lo, Hi: u.hi, Req: []uint64{uint64(u.id)},
		Sites: len(p.sites),
		Store: func(j int) sitestore.Store { return p.sites[j].st },
		Named: func(req []uint64) (uint64, uint64) {
			v := nodeAt(p.root, int(req[0]))
			return v.lo, v.hi
		},
		Placed: func(apply []uint64) (uint64, uint64) { return leafOf(p.root, apply[0]).lo, apply[0] },
	}.Cut(p.eng.Meter(), &p.splitScratch)
	if !ok {
		p.cannotSplit++
		return false
	}
	u.split, u.s = y, left+right
	u.left = &node{id: p.nextID, lo: u.lo, hi: y, parent: u, s: left}
	u.right = &node{id: p.nextID + 1, lo: y, hi: u.hi, parent: u, s: right}
	for _, s := range p.sites {
		s.delta[u.id] = 0
	}
	p.gcDeltas()
	p.leafSplits++
	for _, c := range []*node{u.left, u.right} {
		if c.s >= p.leafSplitAt {
			p.cut(c)
		}
	}
	return true
}

// buildSubtree runs the §4 initialization restricted to [lo, hi):
//
//  1. send [lo, hi) ("rb-req") and collect separator samples every step
//     items (εm/32k, or coarser for a leaf split: see rebuildStep), each of
//     weight step: a reply ("rb-seps") is its samples alone, since the
//     exact counts arrive in step 4;
//  2. recursively split at weighted medians while the estimated count
//     exceeds 3εm/8, keeping invariant (5);
//  3. broadcast the new structure to the sites ("rb-tree", encodeSubtree);
//  4. collect from every site its rank at each leaf boundary ("rb-counts"),
//     from which every new node's exact count follows (addCounts).
func (p *policy) buildSubtree(parent *node, lo, hi uint64, step int64) *node {
	meter := p.eng.Meter()
	var merged []uint64
	req := []uint64{lo, hi}
	for j, s := range p.sites {
		meter.DownMsg(j, "rb-req", req)
		n := len(merged)
		if s.st.CountRange(lo, hi) > 0 {
			merged = s.st.Separators(merged, lo, hi, step)
		}
		meter.UpMsg(j, "rb-seps", merged[n:])
	}
	// Every sample carries the same weight, step: sort the values alone.
	slices.Sort(merged)

	fresh := p.buildRec(parent, lo, hi, merged, step, p.leafCap())

	tree := encodeSubtree(nil, fresh)
	for j := range p.sites {
		meter.DownMsg(j, "rb-tree", tree)
	}
	bounds := leafBounds(fresh)
	for j, s := range p.sites {
		words := sitestore.EncodeRanks(nil, s.st, bounds)
		meter.UpMsg(j, "rb-counts", words)
		r, err := sitestore.DecodeRanks(words, len(bounds))
		if err != nil {
			panic(err) // encoded just above: a codec bug
		}
		addCounts(fresh, r)
	}
	return fresh
}

// addCounts adds one site's counts to the subtree u, given r, the site's
// ranks at u's leaf boundaries left to right (leafBounds): a node spanning
// boundaries i..j counts r[j] − r[i] items there, clamped at zero exactly as
// Store.CountRange clamps its own difference.
func addCounts(u *node, r []int64) {
	var add func(u *node, i int) int // returns the index of u.hi
	add = func(u *node, i int) int {
		j := i + 1
		if !u.isLeaf() {
			j = add(u.right, add(u.left, i))
		}
		u.s += max(0, r[j]-r[i])
		return j
	}
	add(u, 0)
}

// gcDeltas renumbers the live tree's node ids to the dense range 0..N-1 and
// rebuilds every site's delta slice to match, dropping pending deltas for
// replaced nodes in the process. Called after a fresh subtree has been
// attached (always with every site lock held), it is what keeps the fast
// path's per-node counters plain slice indexing: newly built nodes carry
// provisional ids >= nextID that are compacted here before any fast path
// can observe them.
func (p *policy) gcDeltas() {
	p.nodeScratch = appendNodes(p.nodeScratch[:0], p.root)
	nodes := p.nodeScratch
	for _, s := range p.sites {
		fresh := s.deltaScratch
		if cap(fresh) < len(nodes) {
			fresh = make([]int64, len(nodes))
		} else {
			fresh = fresh[:len(nodes)]
		}
		for i, u := range nodes {
			if u.id < len(s.delta) {
				fresh[i] = s.delta[u.id]
			} else {
				fresh[i] = 0 // new node (or scratch residue): no pending delta
			}
		}
		s.delta, s.deltaScratch = fresh, s.delta
	}
	for i, u := range nodes {
		u.id = i
	}
	p.nextID = len(nodes)
}

// buildRec recursively splits [lo, hi) at the weighted median of the sorted
// sample segment, each sample of weight w, until the estimated count is at
// most leafCap.
func (p *policy) buildRec(parent *node, lo, hi uint64, merged []uint64, w, leafCap int64) *node {
	u := &node{id: p.nextID, lo: lo, hi: hi, parent: parent}
	p.nextID++

	weight := int64(len(merged)) * w
	if weight <= leafCap {
		return u
	}
	// Weighted median, constrained to lie strictly inside (lo, hi).
	var acc int64
	split := uint64(0)
	found := false
	for _, v := range merged {
		acc += w
		if acc*2 >= weight && v > lo && v < hi {
			split = v
			found = true
			break
		}
	}
	if !found {
		// All samples collapse onto the interval edge (massive ties): leave
		// a fat leaf rather than recurse forever.
		p.cannotSplit++
		return u
	}
	cut, _ := slices.BinarySearch(merged, split)
	u.split = split
	u.left = p.buildRec(u, lo, split, merged[:cut], w, leafCap)
	u.right = p.buildRec(u, split, hi, merged[cut:], w, leafCap)
	return u
}

// mergeRec builds a round's subtree over old leaves a..b−1, whose
// boundaries are bounds and whose exact counts have the prefix sums cum
// (old leaf i holds cum[i+1] − cum[i]). A node holding at most leafCap, or
// spanning one old leaf, is a leaf. Any other node splits at the old
// boundary nearest its weighted median: one side of the old leaf the median
// falls in, whichever leaves the halves closer, so each child holds within
// half that leaf's count of half the node's.
func (p *policy) mergeRec(parent *node, bounds []uint64, cum []int64, a, b int, leafCap int64) *node {
	u := &node{id: p.nextID, lo: bounds[a], hi: bounds[b], parent: parent}
	p.nextID++

	weight := cum[b] - cum[a]
	if weight <= leafCap || b-a == 1 {
		return u
	}
	// c is the first boundary inside (a, b) at or past the median, or b − 1.
	c := a + 1 + sort.Search(b-a-2, func(i int) bool { return 2*(cum[a+1+i]-cum[a]) >= weight })
	if c > a+1 && weight-2*(cum[c-1]-cum[a]) <= 2*(cum[c]-cum[a])-weight {
		c-- // the boundary before the median leaf leaves the halves closer
	}
	u.split = bounds[c]
	u.left = p.mergeRec(u, bounds, cum, a, c, leafCap)
	u.right = p.mergeRec(u, bounds, cum, c, b, leafCap)
	return u
}

// nodeAt returns the node of the tree root whose id is id. gcDeltas numbers
// the tree in preorder, as a site numbers its mirror, so every id in a left
// subtree lies below its right sibling's.
func nodeAt(root *node, id int) *node {
	u := root
	for u.id != id {
		if id < u.right.id {
			u = u.left
		} else {
			u = u.right
		}
	}
	return u
}

// leafOf returns the leaf of the tree root whose interval holds x.
func leafOf(root *node, x uint64) *node {
	u := root
	for !u.isLeaf() {
		if x < u.split {
			u = u.left
		} else {
			u = u.right
		}
	}
	return u
}

// collectNodes returns all nodes of the subtree in preorder.
func collectNodes(u *node) []*node { return appendNodes(nil, u) }

// appendNodes appends the nodes of the subtree u to dst in preorder.
func appendNodes(dst []*node, u *node) []*node {
	if u == nil {
		return dst
	}
	dst = append(dst, u)
	return appendNodes(appendNodes(dst, u.left), u.right)
}

// height returns the depth of the deepest leaf below u (0 for a leaf).
func height(u *node) int {
	if u.isLeaf() {
		return 0
	}
	return 1 + max(height(u.left), height(u.right))
}
