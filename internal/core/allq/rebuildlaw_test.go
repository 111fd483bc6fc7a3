package allq

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/core/engine/enginetest"
	"disttrack/internal/oracle"
	"disttrack/internal/stream"
	"disttrack/internal/wire"
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
// "allq rebuilds sample at εm/32k") right after every partial rebuild and
// leaf split; round builds merge old leaves instead (TestRoundMergeLaw).
// Site j's separators close every w items of its part of [lo, hi), so below
// any value its exact count exceeds its sampled weight by a residue in
// [0, w − 1], and by exactly w − 1 at a value it sampled itself. A weighted
// median cut leaves the left child a sampled weight in [W/2 − w, W/2), so
// its exact count c_l lies within k(w − 1) + 1 of half the node's exact
// count c: the per-build law. Since a node splits only above leafCap =
// 3εm/8 sampled items, and k·w ≤ εm/32 (leafSplitAt/8 for a leaf split),
// that slack is within c/8, so every child holds 3/8–5/8 of its parent
// (invariant (5)). Every fresh leaf holds at most leafCap + k(w − 1) items,
// below leafSplitAt. Each fresh node's count s is its exact count. The
// stream runs for the handoff build and three doublings.
func TestRebuildBuildLaw(t *testing.T) {
	streams := []struct {
		name string
		gen  func(n int64) stream.Generator
	}{
		{"uniform", func(n int64) stream.Generator { return distinctUniform(n, 61) }},
		{"zipf", func(n int64) stream.Generator {
			return stream.PerturbTies(stream.Zipf(1<<20, n, 1.3, 62), stream.TiesAscending)
		}},
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
		if replaced == nil {
			continue // no build, or a round's
		}
		builds += n
		step := p.rebuildStep(replaced)
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
	if tr.Rounds() < 4 || splitNodes == 0 {
		t.Fatalf("%d round builds, %d rebuilt split nodes: want the handoff, three doublings and a rebuild", tr.Rounds(), splitNodes)
	}
	t.Logf("%d builds, %d split nodes checked; %d rounds, %d rebuilds, %d leaf splits",
		builds, splitNodes, tr.Rounds(), tr.Rebuilds(), tr.LeafSplits())
}

// decodeSubtree rebuilds a subtree from its "rb-tree" words and the replaced
// node's [lo, hi), as a site mirroring the tree would: the preorder shape
// bitmap ends where the tree is complete (a full binary tree of N nodes
// takes N bits), and the splits that follow fill the internal nodes in
// preorder. Node ids are left to renumber.
func decodeSubtree(words []uint64, lo, hi uint64) (*node, error) {
	n, open := 0, 1
	for ; open > 0; n++ {
		if n/64 >= len(words) {
			return nil, fmt.Errorf("shape bitmap ends after %d nodes with %d open", n, open)
		}
		open--
		if wire.Bit(words, n) {
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
		u := &node{lo: lo, hi: hi, parent: parent}
		internal := wire.Bit(words, next)
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

// decodeMerge rebuilds a round's tree from its "rb-tree" words to a site
// that holds the old tree, whose inner leaf boundaries are inner, as
// encodeMerge writes them: the kept boundaries are the new leaves' his left
// to right (the last is the universe's end), and the preorder shape bitmap
// places every split, the hi of its node's left subtree. Node ids are left
// to renumber.
func decodeMerge(inner, words []uint64) (*node, error) {
	nk := (len(inner) + 63) / 64
	if len(words) < nk {
		return nil, fmt.Errorf("%d words, shorter than the %d-word keep bitmap", len(words), nk)
	}
	var his []uint64
	for i, b := range inner {
		if wire.Bit(words, i) {
			his = append(his, b)
		}
	}
	his = append(his, math.MaxUint64)
	shape := words[nk:]
	next, leaf := 0, 0
	var build func(parent *node, lo uint64) (*node, error)
	build = func(parent *node, lo uint64) (*node, error) {
		u := &node{lo: lo, parent: parent}
		internal := wire.Bit(shape, next)
		next++
		if !internal {
			if leaf == len(his) {
				return nil, fmt.Errorf("shape has more leaves than the %d kept boundaries", len(his))
			}
			u.hi = his[leaf]
			leaf++
			return u, nil
		}
		var err error
		if u.left, err = build(u, lo); err != nil {
			return nil, err
		}
		u.split = u.left.hi
		if u.right, err = build(u, u.split); err != nil {
			return nil, err
		}
		u.hi = u.right.hi
		return u, nil
	}
	root, err := build(nil, 0)
	if err != nil {
		return nil, err
	}
	if leaf != len(his) || (next+63)/64 != len(shape) {
		return nil, fmt.Errorf("%d leaves for %d kept boundaries, %d nodes in %d shape words", leaf, len(his), next, len(shape))
	}
	return root, nil
}

// siteMirror is one site's copy of the tree, rebuilt from the messages it
// receives alone.
type siteMirror struct {
	root  *node
	req   []uint64 // [lo, hi) of the rebuild under way, from "rb-req"
	round bool     // a "round-req" came: the next "rb-tree" is a merge
}

// replay follows every tree-building message of one tracker: each site's
// mirror takes an "rb-tree" as a rebuilt subtree after an "rb-req"
// (decodeSubtree), as a merge of its old tree after a "round-req"
// (decodeMerge), and otherwise, at the handoff or after joining, as the
// whole tree (decodeSubtree over the universe). It sums the words sent of
// every round-build and rebuild kind, and checks each "rb-tree"'s length:
// I + ⌈N/64⌉ words for a subtree of N nodes, I internal, and
// ⌈(L − 1)/64⌉ + ⌈N/64⌉ for a merge over L old leaves.
type replay struct {
	tb     testing.TB
	tr     *Tracker
	sites  []*siteMirror
	base   map[string]int64 // meter words when the replay began
	sent   map[string]int64 // words of the encodings sent since
	msgs   int              // messages seen since
	seen   int              // msgs at the last check
	failed bool

	merges, wideMerges, wideSubtrees, joins int
}

var replayKinds = []string{"round-req", "rb-req", "rb-seps", "rb-tree", "rb-counts"}

func newReplay(tb testing.TB, tr *Tracker) *replay {
	r := &replay{tb: tb, tr: tr, base: map[string]int64{}, sent: map[string]int64{}}
	r.begin()
	tr.Meter().SetTap(r.tap)
	return r
}

func (r *replay) errorf(format string, args ...any) {
	if !r.failed {
		r.failed = true
		r.tb.Errorf("|A|=%d: "+format, append([]any{r.tr.TrueTotal()}, args...)...)
	}
}

// begin starts the replay from the tracker's state: each site holds the
// coordinator's tree, and the meter's words so far are not the replay's.
// check begins again while no message has come, as after a restore.
func (r *replay) begin() {
	r.sites = nil
	for range r.tr.K() {
		m := &siteMirror{}
		if !r.tr.Bootstrapping() {
			m.root = cloneTree(r.tr.p.root, nil)
			renumber(m.root)
		}
		r.sites = append(r.sites, m)
	}
	for _, kind := range replayKinds {
		r.base[kind] = r.tr.Meter().Kind(kind).Words
		r.sent[kind] = 0
	}
}

func (r *replay) tap(kind string, j int, words []uint64) {
	r.msgs++
	for len(r.sites) <= j {
		r.sites = append(r.sites, &siteMirror{}) // a site that joined
	}
	r.sent[kind] += int64(max(1, len(words))) // a message carries at least its type
	m := r.sites[j]
	switch kind {
	case "round-req":
		m.round = true
	case "rb-req":
		m.req = slices.Clone(words)
	case "rb-tree":
		var got *node
		var err error
		var want int
		switch {
		case m.req != nil:
			if got, err = decodeSubtree(words, m.req[0], m.req[1]); err == nil {
				m.root, err = replaceNode(m.root, got)
			}
			m.req = nil
		case m.round:
			inner := leafBounds(m.root)
			inner = inner[1 : len(inner)-1]
			got, err = decodeMerge(inner, words)
			m.root, m.round = got, false
			want = (len(inner) + 63) / 64
			r.merges++
			if len(inner) > 64 {
				r.wideMerges++
			}
		default:
			if m.root == nil && len(r.tr.p.boot.Keys()) == 0 {
				r.joins++ // not the handoff, whose list is dropped after it
			}
			got, err = decodeSubtree(words, 0, math.MaxUint64)
			m.root = got
		}
		if err != nil {
			r.errorf("site %d: %v", j, err)
			return
		}
		renumber(m.root)
		nodes := collectNodes(got)
		if want == 0 {
			want = (len(nodes) - 1) / 2 // a subtree's splits
			if len(nodes) > 64 {
				r.wideSubtrees++
			}
		}
		if want += (len(nodes) + 63) / 64; len(words) != want {
			r.errorf("site %d: a %d-node \"rb-tree\" of %d words, want %d", j, len(nodes), len(words), want)
		}
	}
}

// check compares every site's mirror with the coordinator's tree, and the
// metered words of every round-build and rebuild kind with the words sent,
// when a message came since the last check: only a message changes them.
func (r *replay) check(label string) {
	if r.msgs == 0 {
		r.begin()
	}
	if r.msgs == r.seen {
		return
	}
	r.seen = r.msgs
	p := r.tr.p
	r.sites = r.sites[:r.tr.K()] // a shrink drops the departed sites
	for j, m := range r.sites {
		if r.tr.Bootstrapping() {
			if m.root != nil {
				r.errorf("%s: site %d holds a tree during the bootstrap", label, j)
			}
			continue
		}
		if err := sameTree(m.root, p.root); err != nil {
			r.errorf("%s: site %d rebuilt from the messages: %v", label, j, err)
		}
	}
	for _, kind := range replayKinds {
		if got := r.tr.Meter().Kind(kind).Words - r.base[kind]; got != r.sent[kind] {
			r.errorf("%s: metered %d %q words, the encodings sent are %d words long", label, got, kind, r.sent[kind])
		}
	}
}

// renumber gives a mirror's nodes their preorder positions as ids, as a site
// renumbers its tree after every "rb-tree": "rb-tree" carries no ids because
// gcDeltas numbers the coordinator's nodes the same way.
func renumber(root *node) {
	for i, u := range collectNodes(root) {
		u.id = i
	}
}

// sameTree reports how a mirror differs from the coordinator's tree in
// shape, intervals, splits or node ids (not counts, which sites do not
// hold).
func sameTree(a, b *node) error {
	an, bn := collectNodes(a), collectNodes(b)
	if len(an) != len(bn) {
		return fmt.Errorf("%d nodes, the coordinator's tree %d", len(an), len(bn))
	}
	for i, u := range an {
		v := bn[i]
		if u.id != v.id || u.lo != v.lo || u.hi != v.hi || u.split != v.split || u.isLeaf() != v.isLeaf() {
			return fmt.Errorf("preorder node %d is {id %d [%d,%d) split %d leaf %v}, the coordinator's {id %d [%d,%d) split %d leaf %v}",
				i, u.id, u.lo, u.hi, u.split, u.isLeaf(), v.id, v.lo, v.hi, v.split, v.isLeaf())
		}
	}
	return nil
}

// replaceNode puts sub in place of the node of the tree root with sub's
// interval and returns the tree's root.
func replaceNode(root, sub *node) (*node, error) {
	u := root
	for u != nil && (u.lo != sub.lo || u.hi != sub.hi) {
		switch {
		case u.isLeaf():
			u = nil
		case sub.lo < u.split:
			u = u.left
		default:
			u = u.right
		}
	}
	switch {
	case u == nil:
		return root, fmt.Errorf("no node [%d, %d) in the mirror", sub.lo, sub.hi)
	case u.parent == nil:
		return sub, nil
	case u.parent.left == u:
		u.parent.left = sub
	default:
		u.parent.right = sub
	}
	sub.parent = u.parent
	return root, nil
}

// cloneTree copies the shape, intervals and splits of u.
func cloneTree(u, parent *node) *node {
	if u == nil {
		return nil
	}
	c := &node{lo: u.lo, hi: u.hi, split: u.split, parent: parent}
	if !u.isLeaf() {
		c.left, c.right = cloneTree(u.left, c), cloneTree(u.right, c)
	}
	return c
}

// TestSubtreeBroadcast replays every tree-building message into each site's
// mirror (replay) and checks, after every call, that every mirror is the
// coordinator's tree, its node ids renumbered in preorder as a site does, and
// that the meter charged the words sent: "rb-tree"
// as a rebuilt subtree, a round merged from the old leaves and the whole
// tree at the handoff or to a joining site, and "round-req", "rb-req",
// "rb-seps" and "rb-counts". Three streams feed one arrival a call; the
// engine's law schedules (enginetest.RunLaw) add batches, a restore, a grow
// and a shrink, and the concurrent schedule, replayed from its first
// message.
func TestSubtreeBroadcast(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		gen  stream.Generator
	}{
		{"uniform", Config{K: 8, Eps: 0.05}, distinctUniform(60000, 71)},
		{"zipf", Config{K: 4, Eps: 1.0 / 64}, stream.PerturbTies(stream.Zipf(1<<20, 120000, 1.3, 72), stream.TiesAscending)},
		{"sorted", Config{K: 1, Eps: 0.05}, stream.Sequential(40000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := newReplay(t, tr)
			for i := 0; ; i++ {
				x, ok := tc.gen.Next()
				if !ok {
					break
				}
				tr.Feed(i%tc.cfg.K, x)
				if r.check("feed"); r.failed {
					t.FailNow()
				}
			}
			if r.merges == 0 || r.wideSubtrees == 0 || tc.cfg.Eps < 0.05 && r.wideMerges == 0 {
				t.Fatalf("%d merges (%d over 64 old leaves), %d subtrees over 64 nodes: nothing checked", r.merges, r.wideMerges, r.wideSubtrees)
			}
		})
	}
	t.Run("law", func(t *testing.T) {
		replays := map[*Tracker]*replay{}
		var merges, joins int
		cfg := enginetest.Config{
			New: func(tb testing.TB) core.Tracker {
				tr, err := New(Config{K: 4, Eps: 0.1})
				if err != nil {
					tb.Fatal(err)
				}
				replays[tr] = newReplay(tb, tr)
				return tr
			},
			K:      4,
			Stream: enginetest.DistinctUniform,
		}
		enginetest.RunLaw(t, cfg, func(tb testing.TB, label string, ctr core.Tracker, _ *oracle.Counter) {
			r := replays[ctr.(*Tracker)]
			if r.check(label); r.failed {
				tb.FailNow()
			}
		})
		for _, r := range replays {
			merges += r.merges
			joins += r.joins
		}
		if merges == 0 {
			t.Fatalf("%d merges, %d joining sites: nothing checked", merges, joins)
		}
		t.Logf("%d merges, %d joining sites replayed", merges, joins)
	})
}

// TestRankPerBoundaryCounts checks that the counts buildSubtree derives
// from one rank per leaf boundary equal what per-node range counts give,
// in both store modes, for a whole tree built on a uniform stream.
func TestRankPerBoundaryCounts(t *testing.T) {
	for _, sketch := range []bool{false, true} {
		tr, err := New(Config{K: 4, Eps: 0.05, Sketch: sketch})
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
				t.Fatalf("sketch %t: node [%d,%d) counts %d from boundary ranks, %d from range counts", sketch, u.lo, u.hi, u.s, want)
			}
		}
		if n := len(collectNodes(fresh)); n < 64 {
			t.Fatalf("sketch %t: a tree of %d nodes checks nothing", sketch, n)
		}
	}
}
