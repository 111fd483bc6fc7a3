package allq

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// wsep is a site-provided separator sample with the rank weight it carries.
type wsep struct {
	v uint64
	w int64
}

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

// minHeight is the smallest height cap a round uses. At h ≥ 5, θ ≤ ε/10, so
// a leaf built from εm/64k samples, at most 3εm/8 + εm/64 items, starts
// below its split trigger (ε/2 − θ)m ≥ 2εm/5. A tree built for ε ≤ 0.6 is
// at least three levels tall (its leaves of at most 3εm/8 items hold all m),
// so the floor binds only above that.
const minHeight = 5

// roundParams derives a round's thresholds from its height cap h and its
// size m: θ = ε/2h, the per-node site batch θm/k and the leaf split trigger
// (ε/2 − θ)m.
func roundParams(eps float64, k int, m int64, h int) (theta float64, thrNode, leafSplitAt int64) {
	theta = eps / (2 * float64(h))
	thrNode = max(1, int64(theta*float64(m)/float64(k)))
	leafSplitAt = max(1, int64((eps/2-theta)*float64(m)))
	return theta, thrNode, leafSplitAt
}

// rebuildSampleDiv is the 64 of a rebuild's sampling step εm/64k.
const rebuildSampleDiv = 64

// sampleStep is the separator sampling step εm/64k of a full or internal
// rebuild: fine enough that the weighted medians keep invariant (5) at
// every level of the subtree built.
func (p *policy) sampleStep() int64 {
	return max(1, int64(p.cfg.Eps*float64(p.m)/(rebuildSampleDiv*float64(p.cfg.K))))
}

// bootTarget returns ⌈max(64, 2·heightCap(ε))·k/ε⌉, the count at which
// neither the sampling step εm/64k nor the node batch θm/k, at any height
// cap a round may use (θ = ε/2h, h ≤ heightCap), is floored at one item.
// Below it a rebuild ships every item and a tracked arrival reports at every
// level of its path, where forwarding costs one word; so the bootstrap
// forwards until then. It is derived from the config, never stored.
func (p *policy) bootTarget() int64 {
	c := max(rebuildSampleDiv, 2*heightCap(p.cfg.Eps))
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
// about four times coarser than εm/64k. The step also keeps k·step ≤
// leafSplitAt − leafCap: then the sampled weight of a leaf past its trigger
// stays above leafCap, so the rebuild splits it, and each new leaf holds
// fewer than leafSplitAt items. Invariant (5) bears on cost only, never on
// the ε bound.
func (p *policy) leafStep() int64 {
	return max(1, min(p.leafSplitAt/8, p.leafSplitAt-p.leafCap())/int64(p.cfg.K))
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
	step := p.sampleStep()
	if u.isLeaf() {
		step = p.leafStep()
	}
	fresh := p.buildSubtree(u.parent, u.lo, u.hi, step)
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
//  1. collect weighted separator samples every step items (εm/64k, or
//     coarser for a leaf split: see rebuild), plus the exact per-site
//     counts of the interval;
//  2. recursively split at weighted medians while the estimated count
//     exceeds 3εm/8, keeping invariant (5);
//  3. broadcast the new structure to the sites;
//  4. collect exact counts for every new node.
func (p *policy) buildSubtree(parent *node, lo, hi uint64, step int64) *node {
	meter := p.eng.Meter()
	var merged []wsep
	var exact int64
	for j, s := range p.sites {
		meter.Down(j, "rb-req", 2)
		c := s.st.CountRange(lo, hi)
		var ss []uint64
		if c > 0 {
			ss = s.st.Separators(lo, hi, step)
		}
		meter.Up(j, "rb-seps", len(ss)+2)
		exact += c
		for _, v := range ss {
			merged = append(merged, wsep{v: v, w: step})
		}
	}
	slices.SortFunc(merged, func(a, b wsep) int { return cmp.Compare(a.v, b.v) })

	fresh := p.buildRec(parent, lo, hi, merged, p.leafCap())

	// Broadcast the new structure (id, lo, hi, split per node) and collect
	// exact per-node counts.
	nodes := collectNodes(fresh)
	meter.Broadcast("rb-tree", 4*len(nodes), p.cfg.K)
	for j, s := range p.sites {
		for _, u := range nodes {
			u.s += s.st.CountRange(u.lo, u.hi)
		}
		meter.Up(j, "rb-counts", len(nodes))
	}
	return fresh
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

// buildRec recursively splits [lo, hi) at the weighted median of the sample
// segment until the estimated count is at most leafCap.
func (p *policy) buildRec(parent *node, lo, hi uint64, merged []wsep, leafCap int64) *node {
	u := &node{id: p.nextID, lo: lo, hi: hi, parent: parent}
	p.nextID++

	var weight int64
	for _, ws := range merged {
		weight += ws.w
	}
	if weight <= leafCap {
		return u
	}
	// Weighted median, constrained to lie strictly inside (lo, hi).
	var acc int64
	split := uint64(0)
	found := false
	for _, ws := range merged {
		acc += ws.w
		if acc*2 >= weight && ws.v > lo && ws.v < hi {
			split = ws.v
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
	cut := sort.Search(len(merged), func(i int) bool { return merged[i].v >= split })
	u.split = split
	u.left = p.buildRec(u, lo, split, merged[:cut], leafCap)
	u.right = p.buildRec(u, split, hi, merged[cut:], leafCap)
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
