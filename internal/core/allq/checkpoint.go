package allq

import (
	"fmt"

	"disttrack/internal/ckpt"
	"disttrack/internal/sitestore"
)

// Engine checkpoint support (engine.Policy.EncodeState/DecodeState). A
// checkpoint captures the live round — the interval tree with per-node
// counts, the round parameters, the bootstrap list (empty once the first
// round is built; a checkpoint written while the list outlived the handoff
// restores it as written), and every site's store and unreported per-node
// deltas — so a restored tracker continues the protocol mid-round.
//
// The tree is encoded in preorder with child links as preorder indices, so
// a decoded child always follows its parent. Per-site deltas are re-indexed
// to preorder position during encode (delta[pos] = delta[node.id]); on
// decode, node ids are assigned from preorder position, which restores the
// dense-id invariant gcDeltas maintains.

// EncodeState appends the policy state; runs under the quiescent lock set.
func (p *policy) EncodeState(enc *ckpt.Encoder) {
	enc.Bool(p.cfg.Sketch)
	enc.I64(p.m)
	enc.I64(int64(p.h))
	enc.F64(p.theta)
	enc.I64(p.thrNode)
	enc.I64(p.leafSplitAt)
	enc.I64(int64(p.rounds))
	enc.I64(int64(p.rebuilds))
	enc.I64(int64(p.leafSplits))
	enc.I64(int64(p.cannotSplit))
	p.boot.Encode(enc)

	order := collectNodes(p.root)
	pos := make(map[*node]int32, len(order))
	for i, u := range order {
		pos[u] = int32(i)
	}
	enc.U32(uint32(len(order)))
	for _, u := range order {
		enc.U64(u.lo)
		enc.U64(u.hi)
		enc.U64(u.split)
		enc.I64(u.s)
		left, right := int32(-1), int32(-1)
		if !u.isLeaf() {
			left, right = pos[u.left], pos[u.right]
		}
		enc.U32(uint32(left))
		enc.U32(uint32(right))
	}
	for _, s := range p.sites {
		sitestore.Encode(enc, s.st)
		enc.U32(uint32(len(order)))
		for _, u := range order {
			var d int64
			if u.id >= 0 && u.id < len(s.delta) {
				d = s.delta[u.id]
			}
			enc.I64(d)
		}
	}
}

// DecodeState rebuilds the policy state on a fresh tracker; on error the
// tracker must be discarded.
func (p *policy) DecodeState(dec *ckpt.Decoder) error {
	if sketch := dec.Bool(); dec.Err() == nil && sketch != p.cfg.Sketch {
		return fmt.Errorf("allq: restore: checkpoint has Sketch %t, tracker %t", sketch, p.cfg.Sketch)
	}
	p.m = dec.I64()
	p.h = int(dec.I64())
	p.theta = dec.F64()
	p.thrNode = dec.I64()
	p.leafSplitAt = dec.I64()
	p.rounds = int(dec.I64())
	p.rebuilds = int(dec.I64())
	p.leafSplits = int(dec.I64())
	p.cannotSplit = int(dec.I64())
	if err := p.boot.Decode(dec); err != nil {
		return fmt.Errorf("allq: restore: %w", err)
	}

	// Each encoded node is 3*8 + 8 + 2*4 = 40 bytes.
	n := dec.Count(40)
	if err := dec.Err(); err != nil {
		return err
	}
	nodes := make([]*node, n)
	for i := range nodes {
		nodes[i] = &node{id: i}
	}
	depth := make([]int, n)
	treeHeight := 0
	for i := 0; i < n; i++ {
		// The parent precedes i in preorder, so its depth is final.
		if par := nodes[i].parent; par != nil {
			depth[i] = depth[par.id] + 1
			treeHeight = max(treeHeight, depth[i])
		}
		u := nodes[i]
		u.lo = dec.U64()
		u.hi = dec.U64()
		u.split = dec.U64()
		u.s = dec.I64()
		left := int32(dec.U32())
		right := int32(dec.U32())
		if dec.Err() != nil {
			return dec.Err()
		}
		if left == -1 && right == -1 {
			continue
		}
		// Preorder: children strictly follow their parent.
		if left <= int32(i) || left >= int32(n) || right <= int32(i) || right >= int32(n) {
			return fmt.Errorf("allq: restore: node %d has child indices %d/%d out of range", i, left, right)
		}
		if nodes[left].parent != nil || nodes[right].parent != nil || left == right {
			return fmt.Errorf("allq: restore: node %d/%d claimed by more than one parent", left, right)
		}
		u.left, u.right = nodes[left], nodes[right]
		nodes[left].parent = u
		nodes[right].parent = u
	}
	for i := 1; i < n; i++ {
		if nodes[i].parent == nil {
			return fmt.Errorf("allq: restore: node %d is unreachable from the root", i)
		}
	}
	if n > 0 {
		p.root = nodes[0]
	} else {
		p.root = nil
	}
	// The engine commits its own fields (including the bootstrap flag)
	// before the policy decodes, so the cross-check is available here: a
	// tracking-phase policy without a tree would nil-deref on first feed.
	if !p.eng.Bootstrapping() {
		if p.root == nil {
			return fmt.Errorf("allq: restore: tracking phase but no interval tree")
		}
		if err := p.checkRound(treeHeight); err != nil {
			return err
		}
	}
	p.nextID = n
	p.pathScratch = nil

	for j, s := range p.sites {
		st, err := sitestore.Decode(dec)
		if err != nil {
			return fmt.Errorf("allq: restore site %d: %w", j, err)
		}
		s.st = st
		nd := dec.Count(8)
		if dec.Err() == nil && nd != n {
			return fmt.Errorf("allq: restore site %d: %d deltas for %d nodes", j, nd, n)
		}
		s.delta = make([]int64, nd)
		for i := range s.delta {
			s.delta[i] = dec.I64()
		}
		if err := dec.Err(); err != nil {
			return err
		}
		if err := p.checkSiteDeltas(s); err != nil {
			return fmt.Errorf("allq: restore site %d: %w", j, err)
		}
		s.deltaScratch = make([]int64, nd)
	}
	return dec.Err()
}

// checkSiteDeltas refuses a site's unreported per-node counts that no run of
// the protocol leaves behind: a negative count, or one at or past thrNode,
// which the site would already have reported. A report adds exactly thrNode
// to the node's count, so a restored delta past it would be lost without
// notice.
func (p *policy) checkSiteDeltas(s *site) error {
	if p.eng.Bootstrapping() {
		return nil
	}
	for i, d := range s.delta {
		if d < 0 || d >= p.thrNode {
			return fmt.Errorf("delta %d for node %d outside [0, %d)", d, i, p.thrNode)
		}
	}
	return nil
}

// checkRound rejects round parameters no tracker writes. The ε bound rests
// on depth ≤ h, restoreMinHeight ≤ h ≤ heightCap(ε), with θ, the site batch
// and the leaf split trigger derived from that h, so a checkpoint breaking
// any of these would restore a tracker that silently answers outside ε.
func (p *policy) checkRound(treeHeight int) error {
	if hCap := heightCap(p.cfg.Eps); p.h < restoreMinHeight || p.h > hCap {
		return fmt.Errorf("allq: restore: height cap %d outside [%d, %d]", p.h, restoreMinHeight, hCap)
	}
	theta, thr, split := roundParams(p.cfg.Eps, p.cfg.K, p.m, p.h)
	if p.theta != theta || p.thrNode != thr || p.leafSplitAt != split {
		return fmt.Errorf("allq: restore: round parameters θ=%g, batch %d, leaf split %d; h=%d, m=%d give %g, %d, %d",
			p.theta, p.thrNode, p.leafSplitAt, p.h, p.m, theta, thr, split)
	}
	if treeHeight > p.h {
		return fmt.Errorf("allq: restore: tree height %d exceeds its cap %d", treeHeight, p.h)
	}
	return nil
}
