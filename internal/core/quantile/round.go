package quantile

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// wsep is a site-provided separator with the rank weight it represents.
type wsep struct {
	v uint64
	w int64
}

// sepSamples collects ~n_j/step local separators of [lo, hi) from every
// site, metering the exchange under the given kind. Each returned separator
// from site j carries weight step_j, so cumulative weights estimate global
// ranks within Σ_j step_j.
func (p *policy) sepSamples(lo, hi uint64, denom float64, kind string) (merged []wsep, total int64, maxStep int64) {
	meter := p.eng.Meter()
	for j, s := range p.sites {
		meter.Down(j, kind+"-req", 1)
		nLocal := s.st.CountRange(lo, hi)
		step := int64(math.Ceil(float64(nLocal) / denom))
		if step < 1 {
			step = 1
		}
		if step > maxStep {
			maxStep = step
		}
		var ss []uint64
		if nLocal > 0 {
			ss = s.st.Separators(lo, hi, step)
		}
		meter.Up(j, kind+"-resp", len(ss)+1)
		total += nLocal
		for _, v := range ss {
			merged = append(merged, wsep{v: v, w: step})
		}
	}
	slices.SortFunc(merged, func(a, b wsep) int { return cmp.Compare(a.v, b.v) })
	return merged, total, maxStep
}

// cutsEvery cuts the merged weighted separator list every `target` weight,
// returning strictly increasing cut values.
func cutsEvery(merged []wsep, target int64) []uint64 {
	if target < 1 {
		target = 1
	}
	var cuts []uint64
	var acc int64
	for _, ws := range merged {
		acc += ws.w
		if acc >= target {
			if len(cuts) == 0 || ws.v > cuts[len(cuts)-1] {
				cuts = append(cuts, ws.v)
				acc = 0
			}
			// A tie with the previous cut keeps accumulating; the next
			// distinct value absorbs the weight.
		}
	}
	return cuts
}

// roundSampleDiv is the 32 of a round build's per-site sampling step
// ε·n_j/32.
const roundSampleDiv = 32.0

// batchDivisor returns the b of the site report batches εm/bk: 8, or
// BatchDivisor when set.
func (p *policy) batchDivisor() float64 {
	if p.cfg.BatchDivisor != 0 {
		return p.cfg.BatchDivisor
	}
	return 8
}

// bootTarget returns ⌈max(32, b)·k/ε⌉, the count at which neither a round
// build's sampling step ε·n_j/32 (with n_j ≈ m/k) nor the εm/bk batch is
// floored at one item. Below it a round build ships every item and every
// tracked arrival crosses a batch, where forwarding costs one word; so the
// bootstrap forwards until then. It is derived from the config, never
// stored.
func (p *policy) bootTarget() int64 {
	return int64(math.Ceil(max(roundSampleDiv, p.batchDivisor()) * float64(p.cfg.K) / p.cfg.Eps))
}

// newRound rebuilds all round state: fresh separators sized for the new m,
// exact interval counts, exact quantile baselines, new thresholds. Cost
// O(k/ε) — the paper's per-round initialization.
func (p *policy) newRound() {
	p.eng.All()
	// 1. Collect weighted separator samples over the whole universe, each
	// site cutting its local items every ε·n_j/32.
	merged, total, _ := p.sepSamples(0, math.MaxUint64, roundSampleDiv/p.cfg.Eps, "round")
	p.m = total
	p.rounds++

	// Fix thresholds for the round.
	em := p.cfg.Eps * float64(p.m)
	p.thrIv = maxi64(1, int64(em/(p.batchDivisor()*float64(p.cfg.K))))
	p.thrTot = p.thrIv
	p.thrLR = p.thrIv
	p.splitAt = maxi64(1, int64(3*em/8))
	p.driftTrig = em / 2

	// 2. Build separators targeting ~3εm/16 items per interval.
	p.seps = cutsEvery(merged, int64(3*em/16))
	if len(p.seps) == 0 {
		// Degenerate round (tiny m or massive ties): fall back to the
		// median of the merged samples so M has a candidate.
		if len(merged) > 0 {
			p.seps = []uint64{merged[len(merged)/2].v}
		} else {
			p.seps = []uint64{0}
		}
	}

	// 3. Broadcast separators; sites reset their per-interval state.
	p.eng.Meter().Broadcast("seps", len(p.seps)+1, p.cfg.K)
	for _, s := range p.sites {
		s.ivDelta = make([]int64, len(p.seps)+1)
		s.totDelta = 0
		for qi := range s.drift {
			s.drift[qi] = [2]int64{}
		}
	}

	// 4. Pick each M: the separator whose estimated rank is nearest φm,
	// then collect exact interval counts and the exact rank of every M.
	for qi := range p.qs {
		q := &p.qs[qi]
		q.m0 = p.nearestSepByWeight(merged, q.phi*float64(p.m))
		q.lBase, q.tBase = 0, p.m
		q.dL, q.dR = 0, 0
	}
	p.ivCount = make([]int64, len(p.seps)+1)
	for j, s := range p.sites {
		counts := p.localIntervalCounts(s)
		p.eng.Meter().Up(j, "round-counts", len(counts)+1+len(p.qs))
		for i, c := range counts {
			p.ivCount[i] += c
		}
		for qi := range p.qs {
			p.qs[qi].lBase += s.st.RankOf(p.qs[qi].m0)
		}
	}
	p.totEst = p.m

	// 5. Relocate any M that starts the round off target (still O(k) each).
	for qi := range p.qs {
		q := &p.qs[qi]
		if math.Abs(float64(q.lBase)-q.phi*float64(q.tBase)) > em/4 {
			p.relocate(qi)
		}
	}
}

// nearestSepByWeight picks the separator whose cumulative-weight rank
// estimate is closest to target.
func (p *policy) nearestSepByWeight(merged []wsep, target float64) uint64 {
	best := p.seps[0]
	bestErr := math.Inf(1)
	var acc int64
	mi := 0
	for _, sep := range p.seps {
		for mi < len(merged) && merged[mi].v <= sep {
			acc += merged[mi].w
			mi++
		}
		if err := math.Abs(float64(acc) - target); err < bestErr {
			bestErr = err
			best = sep
		}
	}
	return best
}

func (p *policy) localIntervalCounts(s *site) []int64 {
	counts := make([]int64, len(p.seps)+1)
	prev := uint64(0)
	for i, sep := range p.seps {
		counts[i] = s.st.CountRange(prev, sep)
		prev = sep
	}
	counts[len(p.seps)] = s.st.CountRange(prev, math.MaxUint64)
	return counts
}

// split divides interval iv (whose coordinator count reached 3εm/8) into
// two, via the paper's localized rebuild: collect local separators of the
// interval, choose a weighted median, then collect exact half counts. Cost
// O(k).
func (p *policy) split(iv int) {
	p.eng.All()
	lo, hi := p.ivBounds(iv)
	merged, totalEst, _ := p.sepSamples(lo, hi, 9, "split")
	if len(merged) == 0 {
		p.cannotSplit++
		return
	}
	// Weighted median of the interval's items.
	var acc int64
	y := merged[len(merged)-1].v
	for _, ws := range merged {
		acc += ws.w
		if acc*2 >= totalEst {
			y = ws.v
			break
		}
	}
	// The split point must lie strictly inside (lo, hi).
	if y <= lo {
		y = lo + 1
	}
	if y >= hi {
		p.cannotSplit++
		return
	}

	// Collect exact half counts (these include all unreported deltas, so
	// site deltas for both halves restart at zero).
	meter := p.eng.Meter()
	var c1, c2 int64
	for j, s := range p.sites {
		meter.Down(j, "split-apply", 2)
		a := s.st.CountRange(lo, y)
		b := s.st.CountRange(y, hi)
		meter.Up(j, "split-counts", 2)
		c1 += a
		c2 += b
	}

	// Install the new separator everywhere.
	p.seps = append(p.seps, 0)
	copy(p.seps[iv+1:], p.seps[iv:])
	p.seps[iv] = y

	p.ivCount = append(p.ivCount, 0)
	copy(p.ivCount[iv+1:], p.ivCount[iv:])
	p.ivCount[iv] = c1
	p.ivCount[iv+1] = c2

	for _, s := range p.sites {
		s.ivDelta = append(s.ivDelta, 0)
		copy(s.ivDelta[iv+1:], s.ivDelta[iv:])
		s.ivDelta[iv] = 0
		s.ivDelta[iv+1] = 0
	}
	p.splits++
}

// ivBounds returns interval iv as [lo, hi).
func (p *policy) ivBounds(iv int) (lo, hi uint64) {
	lo = uint64(0)
	hi = uint64(math.MaxUint64)
	if iv > 0 {
		lo = p.seps[iv-1]
	}
	if iv < len(p.seps) {
		hi = p.seps[iv]
	}
	return lo, hi
}

// relocate is the paper's M-update: collect exact rank/total (step 1), walk
// separators toward the target rank with O(1) exact-count probes (step 2),
// reset the drift counters (step 3).
func (p *policy) relocate(qi int) {
	p.eng.All()
	q := &p.qs[qi]
	meter := p.eng.Meter()
	// Step 1: exact L = rank(M) and T = |A| (2 words per site).
	var l, total int64
	for j, s := range p.sites {
		meter.Down(j, "reloc-req", 1)
		l += s.st.RankOf(q.m0)
		total += p.eng.SiteCount(j)
		meter.Up(j, "reloc-resp", 2)
	}
	target := int64(q.phi * float64(total))

	// Step 2: probe separators toward the target until the rank brackets
	// it, keeping the best candidate. Interval counts are ≤ εm/2, so the
	// best separator lands within εm/4 of the target, after O(1) probes.
	bestV, bestErr := q.m0, math.Abs(float64(l-target))
	newRank := l
	pos := sort.Search(len(p.seps), func(i int) bool { return p.seps[i] > q.m0 })
	if target > l {
		for i := pos; i < len(p.seps); i++ {
			r := l + p.collectRange(q.m0, p.seps[i])
			if err := math.Abs(float64(r - target)); err < bestErr {
				bestV, bestErr, newRank = p.seps[i], err, r
			}
			if r >= target {
				break
			}
		}
	} else if target < l {
		for i := pos - 1; i >= 0; i-- {
			if p.seps[i] >= q.m0 {
				continue
			}
			r := l - p.collectRange(p.seps[i], q.m0)
			if err := math.Abs(float64(r - target)); err < bestErr {
				bestV, bestErr, newRank = p.seps[i], err, r
			}
			if r <= target {
				break
			}
		}
	}

	// Step 3: install M and reset this quantile's drift state everywhere.
	q.m0 = bestV
	q.lBase, q.tBase = newRank, total
	q.dL, q.dR = 0, 0
	meter.Broadcast("newM", 2, p.cfg.K)
	for _, s := range p.sites {
		s.drift[qi] = [2]int64{}
	}
	p.relocations++
}

// collectRange collects the exact global count of [lo, hi) — one probe of
// the paper's step 2, O(k) words.
func (p *policy) collectRange(lo, hi uint64) int64 {
	var c int64
	meter := p.eng.Meter()
	for j, s := range p.sites {
		meter.Down(j, "probe-req", 2)
		c += s.st.CountRange(lo, hi)
		meter.Up(j, "probe-resp", 1)
	}
	return c
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
