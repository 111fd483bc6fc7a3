package allq

import (
	"math"
	"slices"
)

// checkConditions enforces the paper's maintenance rules after s_u changed:
//
//   - condition (6) on the parent edge (rebuild at the parent — the highest
//     node a single count change can newly violate),
//   - condition (6) on u's child edges (rebuild at u),
//   - the leaf split rule s_v > (ε/2 − θ)m (rebuild at the leaf, which
//     splits it).
//
// It reports whether a rebuild happened.
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
		p.rebuild(u)
		p.leafSplits++
		return true
	}
	return false
}

// violated reports whether condition (6) fails on edge (p, c):
// s_c must stay within [s_p/4, 3·s_p/4].
func violated(p, c *node) bool {
	return 4*c.s < p.s || 4*c.s > 3*p.s
}

// newRound starts a fresh round: collect the exact |A|, rebuild the whole
// tree, and fix the round parameters from the height of the tree just built.
// Cost O(k/ε).
func (p *policy) newRound() {
	p.eng.All()
	meter := p.eng.Meter()
	var total int64
	for j := range p.sites {
		meter.Down(j, "round-req", 1)
		total += p.eng.SiteCount(j)
		meter.Up(j, "round-resp", 1)
	}
	p.m = total
	p.rounds++
	grown := 0 // height the replaced tree reached within its round
	if p.root != nil {
		grown = height(p.root)
	}
	p.root = p.buildSubtree(nil, 0, math.MaxUint64, p.sampleStep())
	p.gcDeltas()

	// The round's cap h_r is the built height plus two levels of slack for
	// the rebuilds to come, and at least the height the replaced tree grew
	// to (skewed and sorted streams deepen the tree at their hot spots every
	// round), never below minHeight or above heightCap. A shorter cap pays
	// only if it raises the site batch θm/k: at the same batch, reports cost
	// the same and the smaller leaf split trigger would only add splits.
	hCap := heightCap(p.cfg.Eps)
	h := min(hCap, max(height(p.root)+2, grown, minHeight))
	_, thrCap, _ := roundParams(p.cfg.Eps, p.cfg.K, p.m, hCap)
	if _, thr, _ := roundParams(p.cfg.Eps, p.cfg.K, p.m, h); thr <= thrCap {
		h = hCap
	}
	p.h = h
	p.theta, p.thrNode, p.leafSplitAt = roundParams(p.cfg.Eps, p.cfg.K, p.m, h)
}

// minHeight is the smallest height cap a round uses. At h ≥ 6, θ ≤ ε/12, so
// a leaf built from εm/32k samples, at most 3εm/8 + εm/32 = 13εm/32 items,
// starts below its split trigger (ε/2 − θ)m ≥ 5εm/12; at h = 5 the trigger
// is 2εm/5, below 13εm/32. A tree built for ε < 1/3 is at least four
// levels tall (its leaves of at most 3εm/8 items hold all m, so there are
// more than 8), so the floor binds only above that.
const minHeight = 6

// restoreMinHeight is the smallest height cap a checkpoint may carry: the
// floor was 5 while rebuilds sampled at εm/64k. A round restored at h = 5
// stays sound because rebuild caps its step by the round's own leaf split
// trigger (rebuildStep).
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

// rebuildSampleDiv is the 32 of a rebuild's sampling step εm/32k, the
// sampling error's share of ε: the k sites' summed sampling error k·step =
// εm/32 stays within an eighth of the smallest weight 3εm/8 that
// buildSubtree splits, which keeps invariant (5), and a fresh leaf holds
// under 3εm/8 + εm/32 = 13εm/32 items, below its split trigger from
// minHeight up (docs/architecture.md, "allq rebuilds sample at εm/32k").
// At 16 the cut error εm/16 exceeds that eighth.
const rebuildSampleDiv = 32

// bootDiv is the 64 of the bootstrap target ⌈max(64, 2·heightCap)·k/ε⌉, a
// constant of its own: the target must not follow rebuildSampleDiv (see
// bootTarget).
const bootDiv = 64

// sampleStep is the separator sampling step εm/32k of a whole-tree rebuild
// (and, capped, of an internal one: rebuildStep): fine enough that the
// weighted medians keep invariant (5) at every level of the subtree built.
func (p *policy) sampleStep() int64 {
	return max(1, int64(p.cfg.Eps*float64(p.m)/(rebuildSampleDiv*float64(p.cfg.K))))
}

// bootTarget returns ⌈max(64, 2·heightCap(ε))·k/ε⌉, the count at which the
// bootstrap hands off to the first round. The 2·heightCap term keeps the
// node batch θm/k at least one item at every height cap a round may use
// (θ = ε/2h, h ≤ heightCap): below it a tracked arrival reports at every
// level of its path, where forwarding costs one word. The 64 (bootDiv) was
// the floor of the rebuild step εm/64k; the step is now εm/32k, so the
// handoff build samples every 2 items. It is derived from the config, never
// stored.
func (p *policy) bootTarget() int64 {
	c := max(bootDiv, 2*heightCap(p.cfg.Eps))
	return int64(math.Ceil(float64(c) * float64(p.cfg.K) / p.cfg.Eps))
}

// leafCap is the sampled weight 3εm/8 up to which buildSubtree leaves an
// interval as one leaf.
func (p *policy) leafCap() int64 {
	return max(1, int64(3*p.cfg.Eps*float64(p.m)/8))
}

// leafStep is the separator sampling step of a leaf's rebuild, which runs
// once the leaf's count passes leafSplitAt. A leaf is sampled only as finely
// as its split needs. Invariant (5)'s 3/8–5/8 cut holds if the k sites'
// summed sampling error k·step stays within an eighth of leafSplitAt, a step
// about twice as coarse as εm/32k from h = 7 up. The step also keeps k·step ≤
// leafSplitAt − leafCap: then the sampled weight of a leaf past its trigger
// stays above leafCap, so the rebuild splits it, and each new leaf holds
// fewer than leafSplitAt items. Invariant (5) bears on cost only, never on
// the ε bound.
func (p *policy) leafStep() int64 {
	return max(1, min(p.leafSplitAt/8, p.leafSplitAt-p.leafCap())/int64(p.cfg.K))
}

// rebuildStep is the sampling step of a rebuild at u within the current
// round: leafStep for a leaf, else sampleStep capped, as leafStep caps its
// own, so that k·step ≤ leafSplitAt − leafCap and every fresh leaf starts
// below its trigger. From minHeight up the cap binds only while εm < 96
// (leafSplitAt − leafCap ≥ εm/24 − 1 there); it is what keeps a round
// restored at restoreMinHeight sound. newRound samples at sampleStep: its
// round's height, at least minHeight, is known only once the tree is built.
func (p *policy) rebuildStep(u *node) int64 {
	if u.isLeaf() {
		return p.leafStep()
	}
	return min(p.sampleStep(), max(1, (p.leafSplitAt-p.leafCap())/int64(p.cfg.K)))
}

// enforceHeight keeps depth ≤ h after a structural change: a tree that
// outgrew its cap is rebuilt in a new round, whose cap covers the height
// this one reached. Rank error sums at most one θm error per level of the
// path, so the cap is what the ε bound rests on.
func (p *policy) enforceHeight() {
	if height(p.root) > p.h {
		p.heightRebuilds++
		p.newRound()
	}
}

// rebuild replaces the subtree rooted at u — the paper's partial rebuilding,
// also used for leaf splits (sampled at leafStep). Cost O(k·|A ∩ I_u|/(εm)
// + k·h) words.
func (p *policy) rebuild(u *node) {
	p.eng.All()
	fresh := p.buildSubtree(u.parent, u.lo, u.hi, p.rebuildStep(u))
	if par := u.parent; par == nil {
		p.root = fresh
	} else if par.left == u {
		par.left = fresh
	} else {
		par.right = fresh
	}
	p.rebuilds++
	p.gcDeltas()

	// Setting s_u exact can only increase it, which can newly violate the
	// parent edge; restore (6) upward.
	for par := fresh.parent; par != nil; par = par.parent {
		if violated(par, fresh) {
			p.rebuild(par)
			return
		}
		fresh = par
	}
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
//     from which every new node's exact count follows.
func (p *policy) buildSubtree(parent *node, lo, hi uint64, step int64) *node {
	meter := p.eng.Meter()
	var merged []uint64
	for j, s := range p.sites {
		meter.Down(j, "rb-req", 2)
		var ss []uint64
		if s.st.CountRange(lo, hi) > 0 {
			ss = s.st.Separators(lo, hi, step)
		}
		meter.Up(j, "rb-seps", len(ss))
		merged = append(merged, ss...)
	}
	// Every sample carries the same weight, step: sort the values alone.
	slices.Sort(merged)

	fresh := p.buildRec(parent, lo, hi, merged, step, p.leafCap())

	meter.Broadcast("rb-tree", len(encodeSubtree(fresh)), p.cfg.K)
	// The leaf boundaries lo < split … < hi, left to right: a node spans
	// bounds[i..j] and counts r[j] − r[i] items at a site whose ranks are r,
	// clamped at zero exactly as Store.CountRange clamps its own difference.
	bounds := []uint64{lo}
	for _, u := range collectNodes(fresh) {
		if u.isLeaf() {
			bounds = append(bounds, u.hi)
		}
	}
	r := make([]int64, len(bounds))
	var add func(u *node, i int) int // returns the index of u.hi
	add = func(u *node, i int) int {
		j := i + 1
		if !u.isLeaf() {
			j = add(u.right, add(u.left, i))
		}
		u.s += max(0, r[j]-r[i])
		return j
	}
	for j, s := range p.sites {
		for i, b := range bounds {
			r[i] = s.st.RankOf(b)
		}
		add(fresh, 0)
		meter.Up(j, "rb-counts", len(bounds))
	}
	return fresh
}

// encodeSubtree returns the "rb-tree" broadcast of the subtree u: a preorder
// shape bitmap, bit i of word i/64 set when the i-th node in preorder is
// internal, followed by the split of every internal node in preorder. That
// is I + ⌈N/64⌉ words for N nodes, I of them internal. A site mirrors the
// tree and knows the replaced node's [lo, hi) from "rb-req", so the splits
// give it every interval, and it renumbers the live tree in preorder as
// gcDeltas does, so no id is sent.
func encodeSubtree(u *node) []uint64 {
	nodes := collectNodes(u)
	words := make([]uint64, (len(nodes)+63)/64, (len(nodes)+63)/64+len(nodes)/2)
	for i, v := range nodes {
		if !v.isLeaf() {
			words[i/64] |= 1 << (i % 64)
			words = append(words, v.split)
		}
	}
	return words
}

// gcDeltas renumbers the live tree's node ids to the dense range 0..N-1 and
// rebuilds every site's delta slice to match, dropping pending deltas for
// replaced nodes in the process. Called after a fresh subtree has been
// attached (always with every site lock held), it is what keeps the fast
// path's per-node counters plain slice indexing: newly built nodes carry
// provisional ids >= nextID that are compacted here before any fast path
// can observe them.
func (p *policy) gcDeltas() {
	nodes := collectNodes(p.root)
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

// collectNodes returns all nodes of the subtree in preorder.
func collectNodes(u *node) []*node {
	var out []*node
	var walk func(v *node)
	walk = func(v *node) {
		if v == nil {
			return
		}
		out = append(out, v)
		walk(v.left)
		walk(v.right)
	}
	walk(u)
	return out
}

// height returns the depth of the deepest leaf below u (0 for a leaf).
func height(u *node) int {
	if u.isLeaf() {
		return 0
	}
	return 1 + max(height(u.left), height(u.right))
}
