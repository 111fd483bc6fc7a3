package quantile

import (
	"math"
	"slices"
	"sort"

	"disttrack/internal/sitestore"
)

// bootDiv is the 32 of the bootstrap target ⌈max(32, b)·k/ε⌉, a constant of
// its own: it was set while a round build sampled every site, and is kept
// (see bootTarget).
const bootDiv = 32.0

// batchDivisor returns the b of the site report batches εm/bk: 8, or
// BatchDivisor when set.
func (p *policy) batchDivisor() float64 {
	if p.cfg.BatchDivisor != 0 {
		return p.cfg.BatchDivisor
	}
	return 8
}

// bootTarget returns ⌈max(32, b)·k/ε⌉, the count at which the bootstrap hands
// off to the first round. It was set where a round (then ~50 k/ε words, most
// of them separator samples) began to cost fewer words than forwarding the m
// arrivals it covers. Rounds now merge instead of resampling (newRound) and
// the first round is cut from the bootstrap list for one broadcast
// (OnBootDone), so the target is kept for its other job: at it the εm/bk
// batch is at least one item. It is derived from the config, never stored.
func (p *policy) bootTarget() int64 {
	return int64(math.Ceil(max(bootDiv, p.batchDivisor()) * float64(p.cfg.K) / p.cfg.Eps))
}

// setRound starts round state for m arrivals: the round count and every
// threshold the sites and the coordinator compare against.
func (p *policy) setRound(m int64) {
	p.m = m
	p.rounds++
	p.thrIv, p.thrTot = p.roundBatches(m)
	em := p.cfg.Eps * float64(m)
	p.splitAt = max(1, int64(3*em/8))
	p.driftTrig = em / 2
}

// roundBatches returns a round's site batches for m arrivals: thrIv =
// εm/bk for interval and drift reports and thrTot = m/bk for total reports
// (at least 1 each). A site derives them from the m its round's "seps"
// message carries, as the coordinator does in setRound. The total batch is
// m/bk, not εm/bk: totEst only ends the round, which needs |A| to a constant
// factor, and k·thrTot ≤ m/b bounds how late the round ends
// (docs/architecture.md, "A round needs |A| only to a constant factor").
func (p *policy) roundBatches(m int64) (thrIv, thrTot int64) {
	bk := p.batchDivisor() * float64(p.cfg.K)
	return max(1, int64(p.cfg.Eps*float64(m)/bk)), max(1, int64(float64(m)/bk))
}

// roundCap returns ⌊3εm/16⌋ (at least 1), the most a round build puts in one
// interval by cutting or merging: half the split trigger, so a fresh
// interval has 3εm/16 arrivals of room before it splits.
func (p *policy) roundCap() int64 {
	return max(1, int64(3*p.cfg.Eps*float64(p.m)/16))
}

// OnBootDone builds the first round from the bootstrap list, which holds
// every forwarded arrival: it cuts the sorted keys exactly every roundCap
// keys, so each interval's count and each M's rank are known without asking
// the sites, and the one message is the "seps" broadcast of m and the
// separators.
// The list is dropped afterwards. An arrival that straddles the handoff (its
// site applied it before the bootstrap ended and forwards it after) is in
// its site's store but not in the list; the next round's exact counts take
// it in, one item per site at most against εm ≥ 32k of slack.
func (p *policy) OnBootDone() {
	keys := p.boot.Keys()
	p.setRound(int64(len(keys)))
	c := int(p.roundCap())
	var seps []uint64
	for i := c; i < len(keys); i += c {
		for i < len(keys) && keys[i] == keys[i-1] {
			i++ // a cut between equal keys would not separate them
		}
		if i == len(keys) || keys[i] == math.MaxUint64 {
			break // the last interval ends at math.MaxUint64, inclusive
		}
		seps = append(seps, keys[i])
	}
	if len(seps) == 0 && len(keys) > 0 && keys[len(keys)/2] < math.MaxUint64 {
		seps = []uint64{keys[len(keys)/2]} // massive ties: still give M a candidate
	}
	words := encodeSeps(nil, p.m, seps)
	for j := range p.sites {
		p.eng.Meter().DownMsg(j, "seps", words)
	}
	p.seps = seps
	ranks := make([]int64, len(seps)+1)
	for i, sep := range seps {
		ranks[i] = p.boot.RankOf(sep)
	}
	ranks[len(seps)] = int64(len(keys))
	p.ivCount = make([]int64, len(ranks))
	sitestore.AddCounts(p.ivCount, ranks)
	p.resetSites()
	p.startRound()
	p.boot.Drop()
}

// newRound rebuilds the round when |A| has doubled, from the intervals the
// coordinator already has: m′ is the sum of the sites' ranks at the
// universe's end, |A| exactly with exact sites (roundCounts).
// The coordinator merges adjacent intervals while a merged count stays within
// roundCap (mergeIntervals) and broadcasts m′ and which separators it kept as
// a bitmap ("seps", 1 + ⌈L/64⌉ words; a joining site gets m′ and the kept
// separators themselves). Merging adds exact counts, so the new intervals'
// counts and each M's rank are exact with no further message (with sketch
// sites, within GK's error, as every count they send is). Every interval of
// the ending round holds under εm/2 ≤ εm′/4 when |A| has doubled to m′,
// below the new splitAt; after a Reconfigure m′ may be under 2m, so an
// interval at or over splitAt is split at once (docs/architecture.md,
// "Quantile rounds merge, not resample").
func (p *policy) newRound(old int) {
	p.eng.All()
	meter := p.eng.Meter()
	counts, m := p.roundCounts(old)
	p.setRound(m)
	keep, merged := mergeIntervals(counts, p.roundCap())
	words := encodeKeep(nil, m, keep)
	_, seps := decodeKeep(p.seps, words)
	for j := range p.sites {
		if j < old {
			meter.DownMsg(j, "seps", words)
		} else {
			meter.DownMsg(j, "seps", encodeSeps(nil, m, seps))
		}
	}
	p.seps, p.ivCount = seps, merged
	p.resetSites()
	p.splitFull(0, len(p.ivCount))
	p.startRound()
}

// splitFull splits every interval of [iv, end) whose coordinator count is at
// or over splitAt, and each half of a split the same way, so that none is
// left there. A split cut at the weighted median of the sites' local medians
// leaves a half up to 3N/4 + k of the interval's N, which may still reach
// splitAt. It stops at an interval that ties defeat.
func (p *policy) splitFull(iv, end int) {
	for iv < end {
		if p.ivCount[iv] >= p.splitAt && p.split(iv) {
			end++ // both halves are checked again
			continue
		}
		iv++
	}
}

// roundCounts asks sites [0, old) for their rank at each separator and at
// the universe's end ("round-req", then "round-counts", sitestore's rank
// reply: one header word and the L + 1 rank differences packed at the width
// of the widest, for L separators) and returns every interval's exact count,
// the sum of the clamped rank differences, and m, the sum of the ranks at
// the universe's end. A GK site's ranks need not be monotone, so with sketch
// sites the counts may sum past m, which never exceeds the arrivals. Sites
// from old on joined in a Reconfigure and hold nothing.
func (p *policy) roundCounts(old int) (counts []int64, m int64) {
	meter := p.eng.Meter()
	bounds := append(slices.Clone(p.seps), math.MaxUint64)
	counts = make([]int64, len(bounds))
	for j, s := range p.sites[:old] {
		meter.DownMsg(j, "round-req", nil)
		words := sitestore.EncodeRanks(nil, s.st, bounds)
		meter.UpMsg(j, "round-counts", words)
		ranks, err := sitestore.DecodeRanks(words, len(bounds))
		if err != nil {
			panic(err) // encoded just above: a codec bug
		}
		sitestore.AddCounts(counts, ranks)
		m += ranks[len(bounds)-1]
	}
	return counts, m
}

// mergeIntervals merges adjacent intervals, whose exact counts are counts,
// left to right while a merged count stays within limit. keep[i] reports
// whether the separator between intervals i and i+1 survives, and merged
// holds the counts of the intervals left. A merged interval is one interval
// of counts (which may exceed limit) or holds at most limit, and any two
// adjacent ones hold more than limit together, so there are at most
// 2·Σcounts/limit + 1 of them.
func mergeIntervals(counts []int64, limit int64) (keep []bool, merged []int64) {
	keep = make([]bool, len(counts)-1)
	cur := counts[0]
	for i, c := range counts[1:] {
		if cur+c > limit {
			keep[i] = true
			merged = append(merged, cur)
			cur = 0
		}
		cur += c
	}
	return keep, append(merged, cur)
}

// resetSites drops every site's unreported counts for a fresh round.
func (p *policy) resetSites() {
	for _, s := range p.sites {
		s.ivDelta = make([]int64, len(p.seps)+1)
		s.totDelta = 0
		for qi := range s.drift {
			s.drift[qi] = [2]int64{}
		}
		s.quiet = 0
	}
}

// startRound finishes a round build whose separators and exact interval
// counts are installed: it picks each M as the separator whose exact rank is
// nearest φm, sets the coordinator's baselines, and relocates any M that
// starts the round more than εm/4 off target (fresh intervals are far below
// that, so this is a guard for degenerate rounds, O(k) each).
func (p *policy) startRound() {
	for qi := range p.qs {
		q := &p.qs[qi]
		q.m0, q.lBase = p.nearestSep(q.phi * float64(p.m))
		q.tBase = p.m
		q.dL, q.dR = 0, 0
	}
	p.totEst = p.m
	em := p.cfg.Eps * float64(p.m)
	for qi := range p.qs {
		q := &p.qs[qi]
		if math.Abs(float64(q.lBase)-q.phi*float64(q.tBase)) > em/4 {
			p.relocate(qi)
		}
	}
}

// nearestSep returns the separator whose exact rank, read from the exact
// interval counts, is nearest target, and that rank; with no separator, 0.
func (p *policy) nearestSep(target float64) (v uint64, rank int64) {
	best := math.Inf(1)
	var acc int64
	for i, sep := range p.seps {
		acc += p.ivCount[i]
		if d := math.Abs(float64(acc) - target); d < best {
			best, v, rank = d, sep, acc
		}
	}
	return v, rank
}

// split divides interval iv (whose coordinator count reached 3εm/8) into
// two, via the paper's localized rebuild: sitestore.Split's median-of-medians
// cut, the one allq's leaf split makes. Each site sends its lower local
// median of the interval and its count n_j in it ("split-req" names the
// interval by its index), the coordinator cuts at the n_j-weighted median y
// of the medians ("split-apply", y alone: a site finds the interval among
// its own separators, decodeSplit), and each site sends its count a_j left
// of y; the right half's is n_j − a_j. Cost O(k). It reports whether the
// interval was split: ties can defeat it.
func (p *policy) split(iv int) bool {
	p.eng.All()
	lo, hi := p.ivBounds(iv)
	sts := make([]sitestore.Store, len(p.sites))
	for j, s := range p.sites {
		sts[j] = s.st
	}
	y, c1, c2, ok := sitestore.Split{
		Lo: lo, Hi: hi, Req: encodeSplitReq(nil, iv),
		Named: func(req []uint64) (uint64, uint64) { return p.ivBounds(decodeSplitReq(req)) },
		Placed: func(apply []uint64) (uint64, uint64) {
			siv, y := decodeSplit(p.seps, apply)
			slo, _ := p.ivBounds(siv)
			return slo, y
		},
	}.Cut(p.eng.Meter(), sts)
	if !ok {
		p.cannotSplit++
		return false
	}

	// Install the new separator everywhere. The half counts are exact (they
	// include every unreported delta), so site deltas for both halves
	// restart at zero.
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
	return true
}

// ivBounds returns interval iv as [lo, hi); the last interval's hi is
// math.MaxUint64, where the site stores close it (sitestore.Store), so it
// holds that value too. No separator is math.MaxUint64: a cut there would
// leave an interval no store query can count.
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
	// Step 1: exact L = rank(M) and T = |A|: the coordinator names the
	// quantile ("reloc-req"), and each site sends its rank of that M and its
	// count ("reloc-resp", one word when both fit, else two).
	var l, total int64
	req := encodeQuantile(nil, qi)
	for j, s := range p.sites {
		meter.DownMsg(j, "reloc-req", req)
		sq, err := decodeQuantile(req, len(p.qs))
		if err != nil {
			panic(err) // encoded just above: a codec bug
		}
		words := encodeCounts(nil, s.st.RankOf(p.qs[sq].m0), p.eng.SiteCount(j))
		meter.UpMsg(j, "reloc-resp", words)
		r, c, err := decodeCounts(words)
		if err != nil {
			panic(err) // encoded just above: a codec bug
		}
		l += r
		total += c
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

	// Step 3: install M and reset this quantile's drift state everywhere
	// ("newM": the index and the new M; a site resets the pair it decodes).
	q.m0 = bestV
	q.lBase, q.tBase = newRank, total
	q.dL, q.dR = 0, 0
	words := encodeNewM(nil, qi, bestV)
	for j, s := range p.sites {
		meter.DownMsg(j, "newM", words)
		sq, _, err := decodeNewM(words, len(p.qs))
		if err != nil {
			panic(err) // encoded just above: a codec bug
		}
		s.drift[sq] = [2]int64{}
	}
	p.relocations++
}

// collectRange collects the exact global count of [lo, hi) — one probe of
// the paper's step 2, O(k) words: each site counts the range a "probe-req"
// names (2 words) and replies with one count ("probe-resp").
func (p *policy) collectRange(lo, hi uint64) int64 {
	var c int64
	meter := p.eng.Meter()
	req := encodeRange(nil, lo, hi)
	for j, s := range p.sites {
		meter.DownMsg(j, "probe-req", req)
		slo, shi, err := decodeRange(req)
		if err != nil {
			panic(err) // encoded just above: a codec bug
		}
		words := encodeCount(nil, s.st.CountRange(slo, shi))
		meter.UpMsg(j, "probe-resp", words)
		n, err := decodeCount(words)
		if err != nil {
			panic(err) // encoded just above: a codec bug
		}
		c += n
	}
	return c
}
