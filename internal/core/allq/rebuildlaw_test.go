package allq

import (
	"fmt"
	"math"
	"testing"

	"disttrack/internal/stream"
)

// buildWatch finds, after each arrival, the subtree the arrival's cascade
// built last. Within one cascade the builds nest (a rebuild that violates
// its parent edge rebuilds the parent, and a round replaces the whole tree),
// so the fresh nodes left in the tree form one subtree, which is contiguous
// in preorder and starts at the first node the previous tree did not hold.
type buildWatch struct {
	tr              *Tracker
	prev            map[*node]bool
	byIv            map[[2]uint64]*node // the previous tree's nodes by interval
	rounds, rebuild int
}

func newBuildWatch(tr *Tracker) *buildWatch {
	return &buildWatch{tr: tr, prev: map[*node]bool{}, byIv: map[[2]uint64]*node{}}
}

// next returns the fresh subtree's root, the node it replaced (nil when a
// round rebuilt the whole tree) and how many builds ran since the last call.
func (w *buildWatch) next() (fresh, replaced *node, builds int) {
	p := w.tr.p
	builds = w.tr.Rounds() - w.rounds + w.tr.Rebuilds() - w.rebuild
	if builds == 0 || p.root == nil {
		return nil, nil, 0
	}
	w.rounds, w.rebuild = w.tr.Rounds(), w.tr.Rebuilds()
	nodes := collectNodes(p.root)
	for _, u := range nodes {
		if !w.prev[u] {
			fresh = u
			break
		}
	}
	if fresh != p.root {
		replaced = w.byIv[[2]uint64{fresh.lo, fresh.hi}]
	}
	clear(w.prev)
	clear(w.byIv)
	for _, u := range nodes {
		w.prev[u] = true
		w.byIv[[2]uint64{u.lo, u.hi}] = u
	}
	return fresh, replaced, builds
}

// TestRebuildBuildLaw checks buildSubtree's derivation (docs/architecture.md,
// "allq rebuilds sample at εm/32k") right after every build. Site j's
// separators close every w items of its part of [lo, hi), so below any value
// its exact count exceeds its sampled weight by a residue in [0, w − 1], and
// by exactly w − 1 at a value it sampled itself. A weighted median cut leaves
// the left child a sampled weight in [W/2 − w, W/2), so its exact count c_l
// lies within k(w − 1) + 1 of half the node's exact count c: the per-build
// law. Since a node splits only above leafCap = 3εm/8 sampled items, and
// k·w ≤ εm/32 (leafSplitAt/8 for a leaf split), that slack is within c/8, so
// every child holds 3/8–5/8 of its parent (invariant (5)). Every fresh leaf
// holds at most leafCap + k(w − 1) items, below leafSplitAt. Each fresh
// node's count s is its exact count. The stream runs for the handoff build
// and three doublings.
func TestRebuildBuildLaw(t *testing.T) {
	streams := []struct {
		name string
		gen  func(n int64) stream.Generator
	}{
		{"uniform", func(n int64) stream.Generator { return distinctUniform(n, 61) }},
		{"zipf", func(n int64) stream.Generator { return stream.Perturb(stream.Zipf(1<<20, n, 1.3, 62)) }},
		{"sorted", stream.Sequential},
	}
	for _, s := range streams {
		for _, eps := range []float64{0.2, 0.05, 1.0 / 64} {
			for _, k := range []int{1, 8, 32} {
				cfg := Config{K: k, Eps: eps}
				t.Run(fmt.Sprintf("%s/eps=%.4g/k=%d", s.name, eps, k), func(t *testing.T) {
					t.Parallel()
					rebuildBuildLaw(t, cfg, s.gen(9*(&policy{cfg: cfg}).bootTarget()))
				})
			}
		}
	}
}

// rebuildBuildLaw feeds gen round robin and checks the build law after every
// arrival that ran a build.
func rebuildBuildLaw(t *testing.T, cfg Config, gen stream.Generator) {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := tr.p
	w := newBuildWatch(tr)
	exact := func(u *node) int64 {
		var c int64
		for _, s := range p.sites {
			c += s.st.CountRange(u.lo, u.hi)
		}
		return c
	}
	k := int64(cfg.K)
	var builds, splitNodes int
	for i := 0; ; i++ {
		x, ok := gen.Next()
		if !ok {
			break
		}
		tr.Feed(i%cfg.K, x)
		fresh, replaced, n := w.next()
		if fresh == nil {
			continue
		}
		builds += n
		step := p.sampleStep()
		if replaced != nil {
			step = p.rebuildStep(replaced)
		}
		slack := k*(step-1) + 1
		for _, u := range collectNodes(fresh) {
			c := exact(u)
			if u.s != c {
				t.Fatalf("|A|=%d: fresh node [%d,%d) has s %d, exact %d", i+1, u.lo, u.hi, u.s, c)
			}
			if u.isLeaf() {
				if c >= p.leafSplitAt {
					t.Fatalf("|A|=%d (m %d, step %d): fresh leaf holds %d items, not below its split trigger %d",
						i+1, p.m, step, c, p.leafSplitAt)
				}
				continue
			}
			splitNodes++
			cl := exact(u.left)
			if d := 2*cl - c; d > 2*slack || d < -2*slack {
				t.Fatalf("|A|=%d (m %d, step %d): left child holds %d of %d items, beyond k(w − 1) + 1 = %d of half",
					i+1, p.m, step, cl, c, slack)
			}
			if 8*cl < 3*c || 8*cl > 5*c {
				t.Fatalf("|A|=%d (m %d, step %d): left child holds %d of %d items, outside 3/8–5/8",
					i+1, p.m, step, cl, c)
			}
		}
	}
	if tr.Rounds() < 4 {
		t.Fatalf("%d round builds, want the handoff and three doublings", tr.Rounds())
	}
	t.Logf("%d builds, %d split nodes checked; %d rounds, %d rebuilds, %d leaf splits",
		builds, splitNodes, tr.Rounds(), tr.Rebuilds(), tr.LeafSplits())
}

// decodeSubtree rebuilds a subtree from its "rb-tree" words and the replaced
// node's [lo, hi), as a site mirroring the tree would: the preorder shape
// bitmap ends where the tree is complete (a full binary tree of N nodes
// takes N bits), and the splits that follow fill the internal nodes in
// preorder. Node ids are preorder positions from first.
func decodeSubtree(words []uint64, lo, hi uint64, first int) (*node, error) {
	bit := func(i int) bool { return words[i/64]>>(i%64)&1 == 1 }
	n, open := 0, 1
	for ; open > 0; n++ {
		if n/64 >= len(words) {
			return nil, fmt.Errorf("shape bitmap ends after %d nodes with %d open", n, open)
		}
		open--
		if bit(n) {
			open += 2
		}
	}
	splits := words[(n+63)/64:]
	if want := (n - 1) / 2; len(splits) != want {
		return nil, fmt.Errorf("%d nodes carry %d internal splits, got %d words", n, want, len(splits))
	}
	next, nextSplit := 0, 0
	var build func(parent *node, lo, hi uint64) (*node, error)
	build = func(parent *node, lo, hi uint64) (*node, error) {
		u := &node{id: first + next, lo: lo, hi: hi, parent: parent}
		internal := bit(next)
		next++
		if !internal {
			return u, nil
		}
		u.split = splits[nextSplit]
		nextSplit++
		if u.split <= lo || u.split >= hi {
			return nil, fmt.Errorf("split %d outside (%d, %d)", u.split, lo, hi)
		}
		var err error
		if u.left, err = build(u, lo, u.split); err != nil {
			return nil, err
		}
		u.right, err = build(u, u.split, hi)
		return u, err
	}
	return build(nil, lo, hi)
}

// TestSubtreeBroadcast checks the "rb-tree" message against the subtree it
// describes. After every build, the words encodeSubtree writes, with only
// the replaced node's [lo, hi) beside them, rebuild the fresh subtree's
// intervals, splits and preorder ids (the ids gcDeltas gives the live tree),
// in I + ⌈N/64⌉ words for N nodes, I internal. After every arrival that ran
// exactly one build, the "rb-tree" words metered are k times that length.
func TestSubtreeBroadcast(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		gen  stream.Generator
	}{
		{"uniform", Config{K: 8, Eps: 0.05}, distinctUniform(60000, 71)},
		{"zipf", Config{K: 4, Eps: 1.0 / 64}, stream.Perturb(stream.Zipf(1<<20, 120000, 1.3, 72))},
		{"sorted", Config{K: 1, Eps: 0.05}, stream.Sequential(40000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			w := newBuildWatch(tr)
			var rbTree int64
			var metered, builds, wide int
			for i := 0; ; i++ {
				x, ok := tc.gen.Next()
				if !ok {
					break
				}
				tr.Feed(i%tc.cfg.K, x)
				fresh, _, n := w.next()
				if fresh == nil {
					continue
				}
				builds++
				words := encodeSubtree(fresh)
				nodes := collectNodes(fresh)
				internal := (len(nodes) - 1) / 2
				if want := internal + (len(nodes)+63)/64; len(words) != want {
					t.Fatalf("%d nodes, %d internal: %d words, want I + ⌈N/64⌉ = %d", len(nodes), internal, len(words), want)
				}
				if len(nodes) > 64 {
					wide++
				}
				got, err := decodeSubtree(words, fresh.lo, fresh.hi, fresh.id)
				if err != nil {
					t.Fatalf("|A|=%d: decode: %v", i+1, err)
				}
				dec := collectNodes(got)
				if len(dec) != len(nodes) {
					t.Fatalf("|A|=%d: decoded %d nodes, built %d", i+1, len(dec), len(nodes))
				}
				for j, u := range nodes {
					v := dec[j]
					if v.id != u.id || v.lo != u.lo || v.hi != u.hi || v.split != u.split || v.isLeaf() != u.isLeaf() {
						t.Fatalf("|A|=%d: preorder node %d decodes as {id %d [%d,%d) split %d leaf %v}, built {id %d [%d,%d) split %d leaf %v}",
							i+1, j, v.id, v.lo, v.hi, v.split, v.isLeaf(), u.id, u.lo, u.hi, u.split, u.isLeaf())
					}
				}
				cost := tr.Meter().Kind("rb-tree").Words
				if n == 1 {
					metered++
					if d := cost - rbTree; d != int64(tc.cfg.K*len(words)) {
						t.Fatalf("|A|=%d: one build metered %d rb-tree words, want k·len(encodeSubtree) = %d",
							i+1, d, tc.cfg.K*len(words))
					}
				}
				rbTree = cost
			}
			if metered == 0 || wide == 0 {
				t.Fatalf("%d builds, %d single-build arrivals, %d subtrees over 64 nodes: nothing checked", builds, metered, wide)
			}
		})
	}
}

// TestRankPerBoundaryCounts checks that the counts buildSubtree derives
// from one rank per leaf boundary equal what per-node range counts give,
// in both store modes, for a whole tree built on a uniform stream.
func TestRankPerBoundaryCounts(t *testing.T) {
	for _, mode := range []Mode{ModeExact, ModeSketch} {
		tr, err := New(Config{K: 4, Eps: 0.05, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		g := distinctUniform(30000, 73)
		for i := 0; ; i++ {
			x, ok := g.Next()
			if !ok {
				break
			}
			tr.Feed(i%4, x)
		}
		p := tr.p
		fresh := p.buildSubtree(nil, 0, math.MaxUint64, p.sampleStep())
		for _, u := range collectNodes(fresh) {
			var want int64
			for _, s := range p.sites {
				want += s.st.CountRange(u.lo, u.hi)
			}
			if u.s != want {
				t.Fatalf("mode %d: node [%d,%d) counts %d from boundary ranks, %d from range counts", mode, u.lo, u.hi, u.s, want)
			}
		}
		if n := len(collectNodes(fresh)); n < 64 {
			t.Fatalf("mode %d: a tree of %d nodes checks nothing", mode, n)
		}
	}
}
