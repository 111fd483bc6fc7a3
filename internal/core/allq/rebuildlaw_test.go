package allq

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"disttrack/internal/oracle"
	"disttrack/internal/sitestore"
	"disttrack/internal/stream"
	"disttrack/internal/wire"
)

// buildWatch finds, after each call, the nodes its rebuilds and leaf splits
// made: the nodes of the tree that the tree at the previous call did not
// hold. Within one call the rebuilds nest (a rebuild that violates its
// parent edge rebuilds the parent, and a round replaces the whole tree), so
// a rebuild's fresh nodes form one subtree, contiguous in preorder; a cut
// adds two fresh leaves under the leaf it turns internal.
type buildWatch struct {
	tr                       *Tracker
	prev                     map[*node]bool
	rounds, rebuilds, splits int
}

func newBuildWatch(tr *Tracker) *buildWatch {
	return &buildWatch{tr: tr, prev: map[*node]bool{}}
}

// next returns the fresh nodes in preorder and how many rounds, rebuilds
// and leaf splits ran since the last call.
func (w *buildWatch) next() (fresh []*node, rounds, rebuilds, splits int) {
	p := w.tr.p
	rounds, rebuilds, splits = w.tr.Rounds()-w.rounds, w.tr.Rebuilds()-w.rebuilds, w.tr.LeafSplits()-w.splits
	if rounds+rebuilds+splits == 0 || p.root == nil {
		return nil, 0, 0, 0
	}
	w.rounds, w.rebuilds, w.splits = w.tr.Rounds(), w.tr.Rebuilds(), w.tr.LeafSplits()
	nodes := collectNodes(p.root)
	for _, u := range nodes {
		if !w.prev[u] {
			fresh = append(fresh, u)
		}
	}
	clear(w.prev)
	for _, u := range nodes {
		w.prev[u] = true
	}
	return fresh, rounds, rebuilds, splits
}

// TestRebuildBuildLaw checks buildSubtree's derivation (docs/architecture.md,
// "allq rebuilds sample at εm/32k") right after every partial rebuild;
// round builds merge old leaves instead (TestRoundMergeLaw), and leaf splits
// cut at a median of medians (TestSplitBalance). Site j's separators close
// every w items of its part of [lo, hi), so below any value its exact count
// exceeds its sampled weight by a residue in [0, w − 1], and by exactly
// w − 1 at a value it sampled itself. A weighted median cut leaves the left
// child a sampled weight in [W/2 − w, W/2), so its exact count c_l lies
// within k(w − 1) + 1 of half the node's exact count c: the per-build law.
// Since a node splits only above leafCap = 3εm/8 sampled items, and
// k·w ≤ εm/32, that slack is within c/8, so every child holds 3/8–5/8 of
// its parent (invariant (5)). Every fresh leaf, a rebuild's or a leaf
// split's, holds fewer than leafSplitAt items, and each fresh node's count
// s is its exact count. The stream runs for the handoff build and three
// doublings. Leaf splits no longer rebuild, and a uniform stream seldom
// violates condition (6), so the streams that must rebuild at least once
// are the ones whose hot spots do: Zipf(1.3) perturbed in ascending tie
// order and sorted, and a uniform stream that jumps to a disjoint range a
// third of the way in.
func TestRebuildBuildLaw(t *testing.T) {
	streams := []struct {
		name     string
		gen      func(n int64) stream.Generator
		rebuilds bool // must rebuild at least once
	}{
		{"uniform", func(n int64) stream.Generator { return distinctUniform(n, 61) }, false},
		{"zipf", func(n int64) stream.Generator {
			return stream.PerturbTies(stream.Zipf(1<<20, n, 1.3, 62), stream.TiesAscending)
		}, true},
		{"sorted", stream.Sequential, true},
		{"drift", func(n int64) stream.Generator {
			return stream.Perturb(stream.Concat(stream.Uniform(1<<20, n/3, 63),
				&offsetGen{g: stream.Uniform(1<<20, n-n/3, 64), off: 1 << 36}))
		}, true},
	}
	for _, s := range streams {
		for _, eps := range []float64{0.2, 0.05, 1.0 / 64} {
			for _, k := range []int{1, 8, 32} {
				cfg := Config{K: k, Eps: eps}
				t.Run(fmt.Sprintf("%s/eps=%.4g/k=%d", s.name, eps, k), func(t *testing.T) {
					t.Parallel()
					rebuildBuildLaw(t, cfg, s.gen(9*(&policy{cfg: cfg}).bootTarget()), s.rebuilds)
				})
			}
		}
	}
}

// rebuildBuildLaw feeds gen round robin and checks the build law after every
// arrival that ran a rebuild or a leaf split; mustRebuild fails a stream
// that never rebuilt a split node.
func rebuildBuildLaw(t *testing.T, cfg Config, gen stream.Generator, mustRebuild bool) {
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
	var builds, splitNodes, cutLeaves int
	for i := 0; ; i++ {
		x, ok := gen.Next()
		if !ok {
			break
		}
		tr.Feed(i%cfg.K, x)
		fresh, rounds, rebuilds, _ := w.next()
		if rounds > 0 || len(fresh) == 0 {
			continue // no build, or a round's
		}
		builds += rebuilds
		step := p.rebuildStep()
		slack := k*(step-1) + 1
		for _, u := range fresh {
			c := exact(u)
			if u.s != c {
				t.Fatalf("|A|=%d: fresh node [%d,%d) has s %d, exact %d", i+1, u.lo, u.hi, u.s, c)
			}
			if u.isLeaf() {
				if c >= p.leafSplitAt {
					t.Fatalf("|A|=%d (m %d, step %d): fresh leaf holds %d items, not below its split trigger %d",
						i+1, p.m, step, c, p.leafSplitAt)
				}
				if rebuilds == 0 {
					cutLeaves++
				}
				continue
			}
			if rebuilds == 0 {
				continue // a half cut again: TestSplitBalance's law
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
	if tr.Rounds() < 4 || mustRebuild && splitNodes == 0 || cutLeaves == 0 {
		t.Fatalf("%d round builds, %d rebuilt split nodes, %d cut leaves: want the handoff, three doublings, a leaf split and (rebuilds %v) a rebuild",
			tr.Rounds(), splitNodes, cutLeaves, mustRebuild)
	}
	t.Logf("%d rebuilds, %d split nodes, %d cut leaves checked; %d rounds, %d rebuilds, %d leaf splits",
		builds, splitNodes, cutLeaves, tr.Rounds(), tr.Rebuilds(), tr.LeafSplits())
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

// siteMirror is one site's copy of the tree and its round's batch, rebuilt
// from the messages it receives alone.
type siteMirror struct {
	root   *node
	h      int      // the round's height cap, derived as startRound does
	thr    int64    // the round's node batch θm′/k
	req    []uint64 // [lo, hi) of the rebuild under way, from "rb-req"
	round  bool     // a "round-req" came: the next "rb-tree" is a merge
	joined bool     // joined in a Reconfigure: its first "rb-tree" names h_r
	cut    *node    // the leaf a "split-req" named
	n      int64    // the site's count there, from its "split-resp"
}

// replay follows every tree-building message of one tracker: each site's
// mirror takes an "rb-tree" as a rebuilt subtree after an "rb-req"
// (decodeSubtree), as a merge of its old tree after a "round-req"
// (decodeMerge), and otherwise, at the handoff or after joining, as the
// whole tree (decodeSubtree over the universe); it cuts the leaf a
// "split-req" names at the y of the "split-apply" that follows. A round's
// "rb-tree" opens with m′, a joining site's with m′ and h_r, and the mirror
// derives the round's height cap and node batch from them and its own trees
// (roundHeight, roundParams) with the k every site learns from the
// membership. It sums the words sent of every round-build, rebuild and split
// kind, and checks each message's length: an "rb-tree" of a subtree of N
// nodes, I internal, I + ⌈N/64⌉ words, a merge over L old leaves
// 1 + ⌈(L − 1)/64⌉ + ⌈N/64⌉, the handoff's whole tree 1 + I + ⌈N/64⌉ and a
// joining site's 2 + I + ⌈N/64⌉; "split-req", "split-apply" and
// "split-counts" 1 word and "split-resp" 1 or 2 (checkSplitResp).
type replay struct {
	tb      testing.TB
	tr      *Tracker
	sites   []*siteMirror
	base    map[string]int64 // meter words when the replay began
	sent    map[string]int64 // words of the encodings sent since
	msgs    int              // messages seen since
	seen    int              // msgs at the last check
	checked bool             // check has run

	merges, wideMerges, wideSubtrees, joins, cuts int
}

var replayKinds = []string{"round-req", "rb-req", "rb-seps", "rb-tree", "rb-counts", "split-req", "split-resp", "split-apply", "split-counts"}

func newReplay(tb testing.TB, tr *Tracker) *replay {
	r := &replay{tb: tb, tr: tr, base: map[string]int64{}, sent: map[string]int64{}}
	r.begin()
	return r
}

// errorf reports a failure without stopping the test: the tap runs on the
// feeders' goroutines too (enginetest.Watch).
func (r *replay) errorf(format string, args ...any) {
	r.tb.Errorf("|A|=%d: "+format, append([]any{r.tr.TrueTotal()}, args...)...)
}

// begin starts the replay from the tracker's state: each site holds the
// coordinator's tree and batch, and the meter's words so far are not the
// replay's. The first check begins again if no message has come, as after
// a restore.
func (r *replay) begin() {
	r.sites = nil
	p := r.tr.p
	for range r.tr.K() {
		m := &siteMirror{}
		if !r.tr.Bootstrapping() {
			m.root = cloneTree(p.root, nil)
			renumber(m.root)
			m.h, m.thr = p.h, p.thrNode
		}
		r.sites = append(r.sites, m)
	}
	for _, kind := range replayKinds {
		r.base[kind] = r.tr.Meter().Kind(kind).Words
		r.sent[kind] = 0
	}
}

// startRound sets a mirror's round from the m′ its "rb-tree" sent: its
// height cap (given, or derived from the tree's height and grown, the height
// the replaced tree reached) and its node batch.
func (r *replay) startRound(m *siteMirror, words []uint64, h, grown int) {
	eps, k := r.tr.p.cfg.Eps, r.tr.p.cfg.K
	if h == 0 {
		h = roundHeight(eps, k, int64(words[0]), height(m.root), grown)
	}
	m.h = h
	_, m.thr, _ = roundParams(eps, k, int64(words[0]), h)
}

func (r *replay) tap(kind string, j int, words []uint64) {
	r.msgs++
	for len(r.sites) <= j {
		// A site that joined: after the handoff, whose list is then dropped,
		// it gets the whole tree with m′ and h_r.
		r.sites = append(r.sites, &siteMirror{joined: len(r.tr.p.boot.Keys()) == 0})
	}
	r.sent[kind] += int64(max(1, len(words))) // a message carries at least its type
	m := r.sites[j]
	switch kind {
	case "round-req":
		m.round = true
	case "rb-req":
		m.req = slices.Clone(words)
	case "rb-tree":
		r.tree(j, m, words)
	case "split-req":
		nodes := collectNodes(m.root)
		if len(words) != 1 || words[0] >= uint64(len(nodes)) || !nodes[words[0]].isLeaf() {
			r.errorf("site %d: \"split-req\" %v names no leaf of its %d nodes", j, words, len(nodes))
			return
		}
		m.cut = nodes[words[0]]
	case "split-resp":
		var err error
		if m.n, err = checkSplitResp(words, m.cut.lo, m.cut.hi); err != nil {
			r.errorf("site %d: %v", j, err)
		}
	case "split-apply":
		if len(words) != 1 || leafOf(m.root, words[0]) != m.cut {
			r.errorf("site %d: \"split-apply\" %v does not fall in the leaf [%d, %d) its \"split-req\" named", j, words, m.cut.lo, m.cut.hi)
			return
		}
		u, y := m.cut, words[0]
		u.split = y
		u.left, u.right = &node{lo: u.lo, hi: y, parent: u}, &node{lo: y, hi: u.hi, parent: u}
		renumber(m.root)
		if j == 0 {
			r.cuts++
		}
	case "split-counts":
		if _, err := sitestore.DecodeSplitCount(words, m.n); err != nil {
			r.errorf("site %d: \"split-counts\" %v after n_j = %d: %v", j, words, m.n, err)
		}
	}
}

// tree applies an "rb-tree" to site j's mirror m and checks its length.
func (r *replay) tree(j int, m *siteMirror, words []uint64) {
	var got *node
	var err error
	var want, head int
	switch {
	case m.req != nil:
		if got, err = decodeSubtree(words, m.req[0], m.req[1]); err == nil {
			m.root, err = replaceNode(m.root, got)
		}
		m.req = nil
	case m.round:
		inner := leafBounds(m.root)
		inner = inner[1 : len(inner)-1]
		grown := height(m.root)
		head, want = 1, (len(inner)+63)/64
		if got, err = decodeMerge(inner, words[1:]); err == nil {
			m.root = got
			r.startRound(m, words, 0, grown)
		}
		m.round = false
		r.merges++
		if len(inner) > 64 {
			r.wideMerges++
		}
	case m.joined:
		r.joins++
		head = 2
		if got, err = decodeSubtree(words[2:], 0, math.MaxUint64); err == nil {
			m.root = got
			r.startRound(m, words, int(words[1]), 0)
		}
		m.joined = false
	default: // the handoff
		head = 1
		if got, err = decodeSubtree(words[1:], 0, math.MaxUint64); err == nil {
			m.root = got
			r.startRound(m, words, 0, 0)
		}
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
	if want += head + (len(nodes)+63)/64; len(words) != want {
		r.errorf("site %d: a %d-node \"rb-tree\" of %d words, want %d", j, len(nodes), len(words), want)
	}
}

// atRest compares every site's mirror with the coordinator's tree and its
// round's height cap and node batch with the coordinator's, and the metered
// words of every replayed kind with the words sent, when a message came
// since the last check: only a message changes them.
func (r *replay) atRest(label string, _ *oracle.Counter) {
	if !r.checked && r.msgs == 0 {
		r.begin()
	}
	r.checked = true
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
		if m.h != p.h || m.thr != p.thrNode {
			r.errorf("%s: site %d derived h %d and node batch %d from the messages, the coordinator's are %d and %d",
				label, j, m.h, m.thr, p.h, p.thrNode)
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
// coordinator's tree, its node ids renumbered in preorder as a site does,
// that the height cap and node batch each site derives from the words alone
// are the coordinator's, and that the meter charged the words sent:
// "rb-tree" as a rebuilt subtree, a round merged from the old leaves and
// the whole tree at the handoff or to a joining site, "round-req",
// "rb-req", "rb-seps" and "rb-counts", and a leaf split's "split-req",
// "split-resp", "split-apply" and "split-counts". Three streams feed one
// arrival a call; the "law" legs run the same replay through the law
// schedules (replayLawLegs) on every law configuration, "law" itself on
// exact sites and a uniform stream.
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
			tr.Meter().SetTap(r.tap)
			for i := 0; ; i++ {
				x, ok := tc.gen.Next()
				if !ok {
					break
				}
				tr.Feed(i%tc.cfg.K, x)
				if r.atRest("feed", nil); t.Failed() {
					t.FailNow()
				}
			}
			if r.merges == 0 || r.cuts == 0 || r.wideSubtrees == 0 || tc.cfg.Eps < 0.05 && r.wideMerges == 0 {
				t.Fatalf("%d merges (%d over 64 old leaves), %d leaf splits, %d subtrees over 64 nodes: nothing checked",
					r.merges, r.wideMerges, r.cuts, r.wideSubtrees)
			}
		})
	}
	for _, c := range lawConfigs {
		name := "law-" + c.name
		if c.name == "exact" {
			name = "law"
		}
		t.Run(name, func(t *testing.T) { replayLawLegs(t, c) })
	}
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
