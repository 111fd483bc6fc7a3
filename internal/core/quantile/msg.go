package quantile

import (
	"errors"
	"math"
	"slices"

	"disttrack/internal/wire"
)

// Cascade and report messages as values. A round build's, a split's and a
// relocation's separators, counts and ranks, and a drift report's pair,
// travel as the words these functions write; the meter records their length
// (wire.Meter's UpMsg and DownMsg) and the receiving half reads only what
// they decode to. A merge's "seps" bitmap is wire.AppendBits' and its
// "round-counts" reply sitestore.EncodeRanks' (docs/architecture.md, "What
// the rank kinds share"). A pair of counts, or a count and an offset the
// receiver can bound, is wire.AppendPair's one word when both fit beside
// its 6-bit width header, and two words otherwise.

// errBadMsg reports a message the encoders here do not write.
var errBadMsg = errors.New("quantile: malformed message")

// encodeSeps appends the "seps" message of a cut made from scratch, which a
// site without separators receives: the round's m, from which the site
// derives its batches (roundBatches), then the separators, one word each.
func encodeSeps(dst []uint64, m int64, seps []uint64) []uint64 {
	return append(append(dst, uint64(m)), seps...)
}

// decodeSeps returns the m and the separators of a "seps" message from
// encodeSeps.
func decodeSeps(words []uint64) (m int64, seps []uint64) {
	return int64(words[0]), append([]uint64(nil), words[1:]...)
}

// encodeKeep appends the "seps" message of a merge, which a site holding
// the old separators receives: the round's m, then a bitmap over the old
// separators (wire.AppendBits), bit i set when keep[i] holds, ⌈L/64⌉ words
// for L old separators.
func encodeKeep(dst []uint64, m int64, keep []bool) []uint64 {
	return wire.AppendBits(append(dst, uint64(m)), len(keep), func(i int) bool { return keep[i] })
}

// decodeKeep returns the m of a merge's "seps" message from encodeKeep and
// the separators of old it keeps, in order.
func decodeKeep(old, words []uint64) (m int64, seps []uint64) {
	for i, v := range old {
		if wire.Bit(words[1:], i) {
			seps = append(seps, v)
		}
	}
	return int64(words[0]), seps
}

// encodeSplitReq appends the "split-req" message that opens the split of
// interval iv: the index alone, 1 word. A site reads the interval's bounds
// off its own separators.
func encodeSplitReq(dst []uint64, iv int) []uint64 { return append(dst, uint64(iv)) }

// decodeSplitReq returns the interval index of a "split-req" message.
func decodeSplitReq(words []uint64) (iv int) { return int(words[0]) }

// encodeSplitResp appends site j's "split-resp" reply for the interval
// [lo, hi): its count n_j there and, when n_j > 0, med, its lower local
// median there, sent as its offset med − lo, which both ends bound by
// hi − lo. That is one word, [6-bit width of n_j | n_j | med − lo], when
// 6 + bits(n_j) + bits(hi − lo) ≤ 64, and the two words n_j and med − lo
// otherwise (wire.AppendPair). A site that holds nothing there sends the
// one word n_j = 0.
func encodeSplitResp(dst []uint64, med uint64, n int64, lo, hi uint64) []uint64 {
	if n == 0 {
		return append(dst, 0)
	}
	return wire.AppendPair(dst, uint64(n), med-lo, hi-lo)
}

// decodeSplitResp returns the count n and, when n > 0, the median of a
// "split-resp" reply from encodeSplitResp for [lo, hi), or an error for
// words it does not write: not one or two words, a malformed packed word, a
// count of 0 beside a median or over math.MaxInt64, or a median past hi.
func decodeSplitResp(words []uint64, lo, hi uint64) (med uint64, n int64, err error) {
	c, off, err := wire.ReadPair(words)
	switch {
	case err != nil:
		return 0, 0, err
	case c == 0 && (off != 0 || len(words) != 1), c > math.MaxInt64, off > hi-lo:
		return 0, 0, errBadMsg
	case c == 0:
		return 0, 0, nil
	}
	return lo + off, int64(c), nil
}

// encodeSplit appends the "split-apply" message that installs separator y:
// the value alone, 1 word. y lies strictly inside the interval being split,
// so a site finds the interval among its own separators (decodeSplit).
func encodeSplit(dst []uint64, y uint64) []uint64 { return append(dst, y) }

// decodeSplit returns the separator of a "split-apply" message and the
// index iv of the interval of seps, a site's separators, that it splits:
// the number of separators below y. Installing y at iv splits iv into iv
// and iv + 1.
func decodeSplit(seps, words []uint64) (iv int, y uint64) {
	y = words[0]
	iv, _ = slices.BinarySearch(seps, y)
	return iv, y
}

// encodeSplitCounts appends site j's "split-counts" reply: a_j, its count
// in the split interval's left half [lo, y), at most the n_j of its
// "split-resp", 1 word. The coordinator takes the right half's count as
// n_j − a_j.
func encodeSplitCounts(dst []uint64, a int64) []uint64 { return append(dst, uint64(a)) }

// decodeSplitCounts returns a_j of a "split-counts" reply.
func decodeSplitCounts(words []uint64) (a int64) { return int64(words[0]) }

// encodeCounts appends a message of two counts, a site's drift pair (L_j,
// R_j) in "drift" or its rank of M and its count in "reloc-resp": one word
// when 6 + bits(a) + bits(b) ≤ 64 (wire.AppendPair), else two.
func encodeCounts(dst []uint64, a, b int64) []uint64 {
	return wire.AppendPair(dst, uint64(a), uint64(b), uint64(b))
}

// decodeCounts returns the two counts of a message from encodeCounts, or an
// error for words it does not write.
func decodeCounts(words []uint64) (a, b int64, err error) {
	x, y, err := wire.ReadPair(words)
	if err == nil && (x > math.MaxInt64 || y > math.MaxInt64) {
		err = errBadMsg
	}
	return int64(x), int64(y), err
}
