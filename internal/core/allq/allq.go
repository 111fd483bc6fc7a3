// Package allq implements the paper's §4 protocol for continuously tracking
// ALL quantiles simultaneously: the coordinator maintains a structure from
// which the rank of any x ∈ U can be extracted with additive error at most
// ε|A| at all times, with total communication O(k/ε · log²(1/ε) · log n)
// (Theorem 4.1). An ε-approximate φ-quantile for every φ — equivalently an
// equal-height histogram, and (2ε)-approximate heavy hitters — follows.
//
// # Protocol
//
// The tracking period is divided into O(log n) rounds (|A| doubles per
// round; m is |A| at round start). The coordinator holds a binary tree T
// with Θ(1/ε) leaves (the paper's Figure 1):
//
//   - each node u covers an interval I_u of the universe; an internal node
//     stores a splitting element dividing I_u between its children, chosen
//     as an approximate median of A ∩ I_u (invariant (5): each child holds
//     between 3/8 and 5/8 of the parent's items at build time);
//   - each node carries s_u, an underestimate of |A ∩ I_u| with absolute
//     error at most θm, where θ = ε/2h and h bounds the tree height
//     (h = Θ(log 1/ε); see Height cap below);
//   - each leaf covers at most εm/2 items.
//
// Sites report per-node arrival counts in batches of θm/k. The coordinator
// maintains condition (6) — s_v ∈ [s_u/4, 3s_u/4] for every child edge — by
// partially rebuilding the subtree at the highest violated node, and splits
// any leaf whose count reaches (ε/2 − θ)m. Rebuild costs are amortized
// against the Ω(|A ∩ I_u|) arrivals that must occur between rebuilds of the
// same node, giving the Theorem 4.1 bound.
//
// Rank extraction walks the root-to-leaf path of x, summing s of left
// siblings: ≤ h counts of error θm each plus the partial leaf, ≤ εm total.
//
// # Height cap
//
// The paper sets h via a chain of loose constants. Here heightCap(ε) =
// ⌈1.5·log₂(16/ε)⌉ + 4 bounds every round, and a round uses the smaller
// h = min(heightCap(ε), max(height of its freshly built tree + 2, height
// the replaced tree grew to, 5)) when that raises the site batch θm/k. A
// rebuild that leaves the tree taller than h starts a new round, so
// depth ≤ h holds at all times and the rank error stays ≤ εm.
// Leaf splits sample separators only as finely as the split needs. See
// "Deviations from the paper" in docs/architecture.md.
//
// Items are assumed distinct (stream.Perturb); see the package quantile
// documentation for how ties degrade and are reported.
//
// # Concurrency
//
// The ingest surface (Feed, FeedLocalBatch, Quiesce, Version) is owned by
// the shared core/engine skeleton; this package supplies only the §4
// algorithm as an engine policy. See package engine for the concurrency
// contract.
package allq

import (
	"fmt"
	"math"
	"slices"

	"disttrack/internal/core/engine"
	"disttrack/internal/sitestore"
)

// Mode selects the per-site item store.
type Mode int

const (
	// ModeExact keeps all local items at each site.
	ModeExact Mode = iota
	// ModeSketch keeps a GK quantile summary at each site.
	ModeSketch
)

// gkEpsFraction: in ModeSketch each site's GK summary uses θ/gkEpsFraction
// as its error so sketch noise stays below the per-node error budget.
const gkEpsFraction = 4.0

// Config parameterizes a Tracker.
type Config struct {
	K    int     // number of sites, >= 1
	Eps  float64 // approximation error, in (0, 1)
	Mode Mode    // per-site store; default ModeExact
}

// node is a vertex of the coordinator's tree T. Sites mirror the structure
// (ids, intervals, splitting elements) but not the counts.
type node struct {
	id          int
	lo, hi      uint64 // interval [lo, hi)
	split       uint64 // splitting element (internal nodes)
	left, right *node
	parent      *node
	s           int64 // s_u — underestimate of |A ∩ I_u|
}

func (u *node) isLeaf() bool { return u.left == nil }

// Tracker continuously tracks all quantiles of the union of k site-local
// streams. The embedded engine provides the whole ingest and quiescence
// surface; the methods defined here are the §4 queries.
type Tracker struct {
	*engine.Engine
	p *policy
}

// policy is the §4 algorithm as an engine policy: all methods run under the
// engine's locks (see engine.Policy), so no field needs locking of its own.
type policy struct {
	eng *engine.Engine
	cfg Config

	sites []*site

	// Bootstrap: until |A| reaches bootTarget every arrival is forwarded into
	// boot, in arrival order until a read sorts it (see bootKeys).
	boot       []uint64
	bootSorted bool

	// Round state.
	m           int64   // |A| at round start
	h           int     // height cap for this round, ≤ heightCap(ε)
	theta       float64 // θ = ε/2h
	thrNode     int64   // site batch size per node: θm/k
	leafSplitAt int64   // leaf split trigger: (ε/2 − θ)m
	root        *node
	nextID      int
	pathScratch []*node // reused by OnEscalate's path walk (under escMu)

	// Statistics.
	rounds         int
	rebuilds       int
	leafSplits     int
	cannotSplit    int
	heightRebuilds int // rounds started because the tree outgrew h
}

// site is the per-site protocol state, guarded by the engine's site locks.
type site struct {
	st sitestore.Store

	// delta holds the per-node unreported arrival counts, indexed densely
	// by node id: gcDeltas renumbers the live tree 0..N-1 after every
	// structural change, so the fast path's per-node increments are plain
	// slice ops instead of the map lookups that used to dominate its
	// profile. deltaScratch is the double buffer the renumbering swaps in.
	delta        []int64
	deltaScratch []int64
}

// New validates cfg and returns a Tracker.
func New(cfg Config) (*Tracker, error) {
	p := &policy{cfg: cfg}
	eng, err := engine.New(engine.Config{Name: "allq", K: cfg.K, Eps: cfg.Eps}, p)
	if err != nil {
		return nil, err
	}
	p.eng = eng
	for j := 0; j < cfg.K; j++ {
		p.sites = append(p.sites, &site{st: p.newStore()})
	}
	return &Tracker{Engine: eng, p: p}, nil
}

// newStore returns an empty site store for the configured mode.
func (p *policy) newStore() sitestore.Store {
	if p.cfg.Mode != ModeSketch {
		return sitestore.NewExact()
	}
	// θ = ε/2h varies by round; the smallest θ, at h = heightCap(ε), is a
	// safe static choice because every round's h is at most heightCap(ε).
	theta := p.cfg.Eps / (2 * float64(heightCap(p.cfg.Eps)))
	return sitestore.NewGK(theta / gkEpsFraction)
}

// heightCap returns ⌈1.5·log₂(16/ε)⌉ + 4, the height condition (6) lets a
// tree reach and the largest cap any round uses.
func heightCap(eps float64) int {
	return int(math.Ceil(1.5*math.Log2(16/eps))) + 4
}

// ApplyBoot records one bootstrap arrival in site j's item store.
func (p *policy) ApplyBoot(siteID int, x uint64) {
	p.sites[siteID].st.Insert(x)
}

// ApplyRun applies the site-local fast path to a prefix of xs:
// root-to-leaf delta counting per item in arrival order until the first
// threshold crossing (inclusive), then one store bulk-insert for the whole
// consumed prefix. The tree it walks only changes after a cascade's
// Engine.All, while every site lock is held.
func (p *policy) ApplyRun(siteID int, xs []uint64) (consumed int, crossed bool) {
	s := p.sites[siteID]
	d := s.delta
	thr := p.thrNode
	consumed = len(xs)
	for i, x := range xs {
		esc := false
		for u := p.root; ; {
			d[u.id]++
			if d[u.id] >= thr {
				esc = true
			}
			if u.isLeaf() {
				break
			}
			if x < u.split {
				u = u.left
			} else {
				u = u.right
			}
		}
		if esc {
			consumed, crossed = i+1, true
			break
		}
	}
	s.st.InsertBatch(xs[:consumed])
	return consumed, crossed
}

// OnEscalate re-checks the per-node thresholds under the protocol lock and
// runs the communication the protocol triggers — node reports, condition
// (6) maintenance and rebuilds, leaf splits, round changes — with all
// wire.Meter accounting. When a rebuild replaces a subtree, pending deltas
// for the replaced nodes (including ones this arrival just incremented) are
// garbage-collected; the rebuild's exact counts already cover them. A node
// report ("nd") touches only site siteID's deltas and the coordinator's
// counts; rebuild and newRound consult every site and call Engine.All first.
func (p *policy) OnEscalate(siteID int, x uint64) {
	s := p.sites[siteID]
	meter := p.eng.Meter()

	// Walk the root-to-leaf path of x, flushing full per-node batches. The
	// path lives in a policy-owned scratch buffer (the slow path is
	// serialized under the engine's escMu) instead of a fresh allocation
	// per escalation.
	p.pathScratch = appendPath(p.pathScratch[:0], p.root, x)
	for _, u := range p.pathScratch {
		if s.delta[u.id] < p.thrNode {
			continue
		}
		meter.Up(siteID, "nd", 2)
		u.s += s.delta[u.id]
		s.delta[u.id] = 0
		if p.checkConditions(u) {
			// The subtree containing the deeper path nodes was rebuilt with
			// exact counts; stop processing stale nodes.
			p.enforceHeight()
			break
		}
	}

	// Round change: the root's count doubles. s_root underestimates |A|, so
	// the trigger never fires early.
	if p.root.s >= 2*p.m {
		p.newRound()
	}
}

// OnBootEscalate forwards one bootstrap arrival into the coordinator's
// exact list; the bootstrap ends once |A| reaches bootTarget.
func (p *policy) OnBootEscalate(_ int, x uint64) (done bool) {
	p.boot = append(p.boot, x)
	p.bootSorted = false
	return p.eng.TrueTotal() >= p.bootTarget()
}

// bootKeys returns the forwarded bootstrap arrivals in ascending order,
// sorting them in place on the first read after an arrival. Like every
// query it runs under the quiescent lock set.
func (p *policy) bootKeys() []uint64 {
	if !p.bootSorted {
		slices.Sort(p.boot)
		p.bootSorted = true
	}
	return p.boot
}

// OnBootDone builds the first round.
func (p *policy) OnBootDone() { p.newRound() }

// OnReconfigure implements engine.Policy: resize the per-site
// state to newK sites and rebuild the whole tree — the §4 batch size θm/k
// depends on k, and a full-tree rebuild with exact counts is the round
// boundary the paper prescribes on membership change. Runs under the
// quiescent lock set, after the engine has folded the removed sites' arrival
// counts into site 0.
func (p *policy) OnReconfigure(oldK, newK int) {
	if newK < oldK {
		// Hand each departing site's items to site 0 (exact: lossless;
		// sketch: count-exact within the source summary's own error — see
		// sitestore.Drain), mirroring the engine's count fold so the
		// rebuild's exact per-node counts keep covering every arrival.
		s0 := p.sites[0]
		for j := newK; j < oldK; j++ {
			s := p.sites[j]
			p.eng.Meter().Up(j, "handoff", s.st.Space())
			sitestore.Drain(s.st, s0.st)
		}
		p.sites = p.sites[:newK]
	} else {
		for j := oldK; j < newK; j++ {
			p.sites = append(p.sites, &site{st: p.newStore()})
		}
	}
	p.cfg.K = newK // bootTarget follows the new k
	if !p.eng.Bootstrapping() {
		p.newRound()
	}
}

// appendPath appends the root-to-leaf path of x to dst and returns it,
// letting callers reuse a scratch buffer across walks.
func appendPath(dst []*node, root *node, x uint64) []*node {
	for u := root; ; {
		dst = append(dst, u)
		if u.isLeaf() {
			return dst
		}
		if x < u.split {
			u = u.left
		} else {
			u = u.right
		}
	}
}

// Rank returns the coordinator's estimate of the number of items < x.
// The estimate underestimates by at most ε·max(m, |A|-ish): formally,
// rank(x) − ε|A| ≤ Rank(x) ≤ rank(x) at all times.
func (t *Tracker) Rank(x uint64) int64 {
	p := t.p
	if t.Bootstrapping() {
		r, _ := slices.BinarySearch(p.bootKeys(), x)
		return int64(r)
	}
	var acc int64
	for u := p.root; !u.isLeaf(); {
		if x < u.split {
			u = u.left
		} else {
			acc += u.left.s
			u = u.right
		}
	}
	return acc
}

// Quantile returns a value whose rank is within ~ε|A| of φ|A| (see the
// package documentation for the exact constant). During bootstrap it is
// exact over the items the coordinator has received; under concurrency an
// arrival becomes visible only once its escalation has run, so a query
// racing the very first arrivals may see none yet (it then returns 0). It
// panics before any arrival.
func (t *Tracker) Quantile(phi float64) uint64 {
	if phi < 0 || phi > 1 {
		panic(fmt.Sprintf("allq: phi must be in [0,1], got %g", phi))
	}
	p := t.p
	if t.Bootstrapping() {
		// Index against what was actually forwarded: TrueTotal counts
		// arrivals on the fast path, but a concurrent arrival reaches the
		// bootstrap list only in its escalation — a quiescent query may run
		// in between.
		keys := p.bootKeys()
		n := int64(len(keys))
		if n == 0 {
			if t.TrueTotal() == 0 {
				panic("allq: Quantile before any arrival")
			}
			return 0 // every arrival so far is still in flight to its escalation
		}
		i := int64(phi * float64(n))
		if i >= n {
			i = n - 1
		}
		return keys[i]
	}
	target := phi * float64(p.root.s)
	u := p.root
	for !u.isLeaf() {
		if ls := float64(u.left.s); target < ls {
			u = u.left
		} else {
			target -= ls
			u = u.right
		}
	}
	// Returning the left edge of the leaf bounds the rank error by the leaf
	// load (≤ εm/2) plus the path error (≤ εm/2).
	return u.lo
}

// HeavyHittersFromRanks extracts approximate φ-heavy hitters from the rank
// structure — the paper's §1 observation that an ε-approximate all-quantile
// structure yields (O(ε))-approximate heavy hitters. Keys must come from
// stream.Perturb with the given shift; the result contains every value with
// frequency ≥ φ|A| and nothing below (φ − ~3ε)|A|. Requires phi > eps.
func (t *Tracker) HeavyHittersFromRanks(phi float64, shift uint) []uint64 {
	p := t.p
	if phi <= p.cfg.Eps || phi > 1 {
		panic(fmt.Sprintf("allq: phi must be in (eps, 1], got %g", phi))
	}
	total := t.EstTotal()
	if total == 0 {
		return nil
	}
	// Any value with frequency above εm/2 spans more than one leaf, so its
	// key range contains a leaf boundary: leaf left edges are a complete
	// candidate set.
	cand := make(map[uint64]bool)
	if t.Bootstrapping() {
		for _, key := range p.bootKeys() {
			cand[key>>shift] = true
		}
	} else {
		for _, u := range collectNodes(p.root) {
			if u.isLeaf() {
				cand[u.lo>>shift] = true
			}
		}
	}
	thresh := (phi - 2*p.cfg.Eps) * float64(total)
	var out []uint64
	for v := range cand {
		freq := t.Rank((v+1)<<shift) - t.Rank(v<<shift)
		if float64(freq) >= thresh {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

// EstTotal returns the coordinator's estimate of |A| (s_root).
func (t *Tracker) EstTotal() int64 {
	if t.Bootstrapping() {
		return t.TrueTotal()
	}
	return t.p.root.s
}

// Rounds, Rebuilds and LeafSplits return protocol statistics.
func (t *Tracker) Rounds() int     { return t.p.rounds }
func (t *Tracker) Rebuilds() int   { return t.p.rebuilds }
func (t *Tracker) LeafSplits() int { return t.p.leafSplits }

// CannotSplit counts build steps defeated by ties.
func (t *Tracker) CannotSplit() int { return t.p.cannotSplit }

// RoundM returns m, the |A| snapshot the current round's thresholds use.
func (t *Tracker) RoundM() int64 { return t.p.m }

// HeightBound returns the current round's height cap h.
func (t *Tracker) HeightBound() int { return t.p.h }

// HeightRebuilds counts the rounds started early because a rebuild left
// the tree taller than its round's height cap. It is not checkpointed: a
// restored tracker counts from zero.
func (t *Tracker) HeightRebuilds() int { return t.p.heightRebuilds }

// SiteSpace returns the number of stored entries at site j (store plus
// pending per-node deltas — the nonzero entries of the dense delta slice,
// matching what the map representation used to hold).
func (t *Tracker) SiteSpace(j int) int {
	pending := 0
	for _, d := range t.p.sites[j].delta {
		if d != 0 {
			pending++
		}
	}
	return t.p.sites[j].st.Space() + pending
}

// Stats describes the current tree shape — the Figure 1 invariants.
type Stats struct {
	Nodes     int
	Leaves    int
	Height    int
	MinLeafS  int64 // smallest leaf count estimate
	MaxLeafS  int64 // largest leaf count estimate
	RoundM    int64
	HeightCap int
}

// TreeStats reports the current structure statistics (F1 experiment).
func (t *Tracker) TreeStats() Stats {
	p := t.p
	st := Stats{RoundM: p.m, HeightCap: p.h, MinLeafS: math.MaxInt64}
	if t.Bootstrapping() || p.root == nil {
		return Stats{}
	}
	var walk func(u *node, d int)
	walk = func(u *node, d int) {
		st.Nodes++
		if d > st.Height {
			st.Height = d
		}
		if u.isLeaf() {
			st.Leaves++
			if u.s < st.MinLeafS {
				st.MinLeafS = u.s
			}
			if u.s > st.MaxLeafS {
				st.MaxLeafS = u.s
			}
			return
		}
		walk(u.left, d+1)
		walk(u.right, d+1)
	}
	walk(p.root, 0)
	return st
}
