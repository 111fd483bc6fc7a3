package sitestore

import (
	"cmp"
	"errors"
	"math"
	"slices"

	"disttrack/internal/wire"
)

// ErrBadSplit reports a split reply the encoders here do not write.
var ErrBadSplit = errors.New("sitestore: malformed split reply")

// Split is one cut of an interval [Lo, Hi) of a partition of the universe
// that the coordinator and every site hold alike: a quantile interval or an
// allq leaf (docs/architecture.md, "A split sends only what its receiver
// cannot work out"). Req is the "split-req" message that names the
// interval. Sites is k and Store returns site j's store. Named and Placed
// are a site's reading of the coordinator's two messages off its own copy
// of the partition: Named returns the interval a "split-req" names, Placed
// the cut y a "split-apply" carries and the lo of the interval y falls in.
type Split struct {
	Lo, Hi uint64
	Req    []uint64
	Sites  int
	Store  func(j int) Store
	Named  func(req []uint64) (lo, hi uint64)
	Placed func(apply []uint64) (lo, y uint64)
}

// SplitScratch is the memory Cut reuses from one split to the next: its
// counts, its medians and the messages it sends. A policy keeps one and
// passes it to every Cut under its engine's locks. The zero value is ready
// to use.
type SplitScratch struct {
	counts []int64
	meds   []median
	down   []uint64 // the coordinator's message, "split-req" then "split-apply"
	up     []uint64 // the site's reply being sent
}

// Cut runs the split over the Sites site stores, metering every message on
// meter and keeping its working memory in sc. Each site answers
// "split-req" with its count n_j in the interval and its lower local median
// there ("split-resp", EncodeSplitResp). The coordinator cuts at y, the
// n_j-weighted median of the medians, moved to Lo + 1 if it is Lo, and
// sends y ("split-apply", 1 word). Each site answers with a_j, its count in
// [Lo, y) clamped to n_j ("split-counts", EncodeSplitCount), and the
// coordinator takes n_j − a_j for [y, Hi). Cut returns y and the two
// halves' counts Σ a_j and Σ (n_j − a_j). With exact stores and distinct
// items each half holds between N/4 − k and 3N/4 + k of the interval's
// N = Σ n_j items. Cut reports ok = false, and sends no "split-apply", when
// no site holds an item there or every median lies at or past Hi: ties
// leave no cut strictly inside (Lo, Hi).
func (s Split) Cut(meter *wire.Meter, sc *SplitScratch) (y uint64, left, right int64, ok bool) {
	sc.counts = slices.Grow(sc.counts[:0], s.Sites)[:s.Sites]
	sc.meds = sc.meds[:0]
	// The messages go out of sc, never out of s, so that nothing in s
	// escapes and the caller's Split, closures included, stays on its stack.
	sc.down = append(sc.down[:0], s.Req...)
	var total int64
	for j := range s.Sites {
		meter.DownMsg(j, "split-req", sc.down)
		lo, hi := s.Named(sc.down)
		sc.up = EncodeSplitResp(sc.up[:0], s.Store(j), lo, hi)
		meter.UpMsg(j, "split-resp", sc.up)
		med, n, err := DecodeSplitResp(sc.up, s.Lo, s.Hi)
		if err != nil {
			panic(err) // encoded just above: a codec bug
		}
		sc.counts[j] = n
		total += n
		if n > 0 {
			sc.meds = append(sc.meds, median{v: med, w: n})
		}
	}
	if len(sc.meds) == 0 {
		return 0, 0, 0, false
	}
	y = max(weightedMedian(sc.meds, total), s.Lo+1) // strictly inside (Lo, Hi)
	if y >= s.Hi {
		return 0, 0, 0, false
	}
	sc.down = append(sc.down[:0], y)
	for j, n := range sc.counts {
		meter.DownMsg(j, "split-apply", sc.down)
		lo, sy := s.Placed(sc.down)
		sc.up = EncodeSplitCount(sc.up[:0], s.Store(j), lo, sy, n)
		meter.UpMsg(j, "split-counts", sc.up)
		a, err := DecodeSplitCount(sc.up, n)
		if err != nil {
			panic(err) // encoded just above: a codec bug
		}
		left += a
		right += n - a
	}
	return y, left, right, true
}

// median is a site's lower local median of the interval being split,
// weighted by the site's count n_j there.
type median struct {
	v uint64
	w int64
}

// weightedMedian returns the first median, in value order, at which the
// summed weight reaches half of total, the weights' sum. The sites whose
// median lies below it weigh under total/2 and those above it at most
// total/2, and each site holds about half its items on either side of its
// own median, so each side of the cut holds about a quarter of the items
// or more.
func weightedMedian(meds []median, total int64) uint64 {
	slices.SortFunc(meds, func(a, b median) int { return cmp.Compare(a.v, b.v) })
	var acc int64
	for _, m := range meds {
		if acc += m.w; 2*acc >= total {
			return m.v
		}
	}
	return meds[len(meds)-1].v
}

// EncodeSplitResp appends the "split-resp" reply of a site whose store is
// st to the split of [lo, hi): its count n_j there and, when n_j > 0, its
// lower local median there (its item of rank ⌈n_j/2⌉ − 1).
func EncodeSplitResp(dst []uint64, st Store, lo, hi uint64) []uint64 {
	n := st.CountRange(lo, hi)
	if n == 0 {
		return appendSplitResp(dst, 0, 0, lo, hi)
	}
	// The first item of every ⌈n/2⌉ is the one of rank ⌈n/2⌉ − 1.
	return appendSplitResp(dst, st.Separators(lo, hi, (n+1)/2)[0], n, lo, hi)
}

// appendSplitResp appends the reply of n items in [lo, hi) with median med:
// n and, when n > 0, med's offset med − lo, which both ends bound by
// hi − lo. That is one word, [6-bit width of n | n | med − lo], when 6 +
// bits(n) + bits(hi − lo) ≤ 64, and the two words n and med − lo otherwise
// (wire.AppendPair). n = 0 is the one word 0.
func appendSplitResp(dst []uint64, med uint64, n int64, lo, hi uint64) []uint64 {
	if n == 0 {
		return append(dst, 0)
	}
	return wire.AppendPair(dst, uint64(n), med-lo, hi-lo)
}

// DecodeSplitResp returns the count n and, when n > 0, the median of a
// "split-resp" reply for [lo, hi), or an error for words EncodeSplitResp
// does not write: not one or two words, a malformed packed word, a count of
// 0 beside a median or over math.MaxInt64, a median past hi, or two words
// where the pair fits one (or one where it does not).
func DecodeSplitResp(words []uint64, lo, hi uint64) (med uint64, n int64, err error) {
	c, off, err := wire.ReadPair(words)
	switch {
	case err != nil:
		return 0, 0, err
	case c == 0 && (off != 0 || len(words) != 1), c > math.MaxInt64, off > hi-lo:
		return 0, 0, ErrBadSplit
	case c == 0:
		return 0, 0, nil
	case len(appendSplitResp(make([]uint64, 0, 2), lo+off, int64(c), lo, hi)) != len(words): // on the stack
		return 0, 0, ErrBadSplit
	}
	return lo + off, int64(c), nil
}

// EncodeSplitCount appends the "split-counts" reply of a site whose store
// is st and whose "split-resp" sent n: a_j, its count in the left half
// [lo, y), 1 word. It is clamped to n, since a sketch's rank estimate need
// not be monotone, so that the right half's n − a_j is never negative.
func EncodeSplitCount(dst []uint64, st Store, lo, y uint64, n int64) []uint64 {
	return append(dst, uint64(min(st.CountRange(lo, y), n)))
}

// DecodeSplitCount returns the count of a "split-counts" reply from a site
// whose "split-resp" sent n, or an error for words EncodeSplitCount does not
// write: not one word, or a count over n.
func DecodeSplitCount(words []uint64, n int64) (int64, error) {
	if len(words) != 1 || words[0] > uint64(n) {
		return 0, ErrBadSplit
	}
	return int64(words[0]), nil
}
