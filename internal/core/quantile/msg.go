package quantile

import (
	"errors"
	"math"
	"slices"

	"disttrack/internal/wire"
)

// Cascade and report messages as values. Every quantile message travels as
// the words these functions write; the meter records their length
// (wire.Meter's UpMsg and DownMsg) and the receiving half reads only what
// they decode to. A cut's separators are a key list (wire.AppendKeys), a
// merge's "seps" bitmap is wire.AppendBits', its "round-counts" reply
// sitestore.EncodeRanks' and a split's replies sitestore.Split's
// (docs/architecture.md, "What the rank kinds share"). A pair of counts, or a count and an offset the receiver can
// bound, is wire.AppendPair's one word when both fit beside its 6-bit width
// header, and two words otherwise; a drift report's pair carries its
// quantile's index beside that header (wire.AppendTaggedPair).

// errBadMsg reports a message the encoders here do not write.
var errBadMsg = errors.New("quantile: malformed message")

// encodeSeps appends the "seps" message of a cut made from scratch, which a
// site without separators receives: the round's m, from which the site
// derives its batches (roundBatches), then the separators, sorted, as a key
// list (wire.AppendKeys): the first raw, the others as varint gaps packed
// eight bytes a word, or raw when the gaps are not shorter.
func encodeSeps(dst []uint64, m int64, seps []uint64) []uint64 {
	return wire.AppendKeys(append(dst, uint64(m)), seps)
}

// decodeSeps returns the m and the separators of a "seps" message from
// encodeSeps, or an error for words it does not write.
func decodeSeps(words []uint64) (m int64, seps []uint64, err error) {
	if len(words) == 0 || words[0] > math.MaxInt64 {
		return 0, nil, errBadMsg
	}
	seps, err = wire.ReadKeys(words[1:])
	return int64(words[0]), seps, err
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

// decodeSplit returns the separator of a "split-apply" message, y alone
// (sitestore.Split), and the index iv of the interval of seps, a site's
// separators, that it splits: the number of separators below y.
// Installing y at iv splits iv into iv and iv + 1.
func decodeSplit(seps, words []uint64) (iv int, y uint64) {
	y = words[0]
	iv, _ = slices.BinarySearch(seps, y)
	return iv, y
}

// encodeCount appends site j's "probe-resp", its count in the range a
// "probe-req" names, 1 word.
func encodeCount(dst []uint64, c int64) []uint64 { return append(dst, uint64(c)) }

// decodeCount returns the count of a message from encodeCount, or an error
// for words it does not write.
func decodeCount(words []uint64) (int64, error) {
	if len(words) != 1 || words[0] > math.MaxInt64 {
		return 0, errBadMsg
	}
	return int64(words[0]), nil
}

// encodeIv appends site j's "iv" report: the index of the interval whose
// batch filled, 1 word. The count is the round's thrIv, which both ends
// know.
func encodeIv(dst []uint64, iv int) []uint64 { return append(dst, uint64(iv)) }

// decodeIv returns the interval of an "iv" report among n intervals, or an
// error for words encodeIv does not write.
func decodeIv(words []uint64, n int) (int, error) {
	if len(words) != 1 || words[0] >= uint64(n) {
		return 0, errBadMsg
	}
	return int(words[0]), nil
}

// encodeTot appends site j's "tot" report, which has no payload: its count
// is the round's thrTot, which both ends know, and the message is the word
// that carries its kind.
func encodeTot(dst []uint64) []uint64 { return dst }

// decodeTot returns an error for words encodeTot does not write.
func decodeTot(words []uint64) error {
	if len(words) != 0 {
		return errBadMsg
	}
	return nil
}

// encodeQuantile appends a "reloc-req": the index of the tracked quantile
// being relocated, whose M a site ranks, 1 word.
func encodeQuantile(dst []uint64, qi int) []uint64 { return append(dst, uint64(qi)) }

// decodeQuantile returns the quantile index of a "reloc-req" among nq
// tracked quantiles, or an error for words encodeQuantile does not write.
func decodeQuantile(words []uint64, nq int) (int, error) {
	if len(words) != 1 || words[0] >= uint64(nq) {
		return 0, errBadMsg
	}
	return int(words[0]), nil
}

// encodeRange appends a "probe-req": the range [lo, hi) a site counts its
// items in, 2 words.
func encodeRange(dst []uint64, lo, hi uint64) []uint64 { return append(dst, lo, hi) }

// decodeRange returns the range of a "probe-req", or an error for words
// encodeRange does not write.
func decodeRange(words []uint64) (lo, hi uint64, err error) {
	if len(words) != 2 || words[0] > words[1] {
		return 0, 0, errBadMsg
	}
	return words[0], words[1], nil
}

// encodeNewM appends the "newM" broadcast that ends a relocation: the
// relocated quantile's index and its new M, 2 words. A site resets its
// drift pair for that quantile and counts arrivals against the new M.
func encodeNewM(dst []uint64, qi int, m0 uint64) []uint64 { return append(dst, uint64(qi), m0) }

// decodeNewM returns the quantile index among nq and the M of a "newM"
// broadcast, or an error for words encodeNewM does not write.
func decodeNewM(words []uint64, nq int) (qi int, m0 uint64, err error) {
	if len(words) != 2 || words[0] >= uint64(nq) {
		return 0, 0, errBadMsg
	}
	return int(words[0]), words[1], nil
}

// encodeDrift appends site j's "drift" report for quantile qi: its
// unreported arrivals L_j and R_j left and right of M. With one tracked
// quantile it is encodeCounts' pair; with nq > 1 the index travels beside
// the pair's width header in ib = bits.Len(nq − 1) bits, a width both ends
// know (wire.AppendTaggedPair): one word when 6 + ib + bits(L_j) +
// bits(R_j) ≤ 64, else the three words qi, L_j and R_j.
func encodeDrift(dst []uint64, qi, ib int, l, r int64) []uint64 {
	return wire.AppendTaggedPair(dst, uint64(qi), ib, uint64(l), uint64(r), uint64(r))
}

// decodeDrift returns the quantile index among nq and the pair of a
// "drift" report from encodeDrift at ib index bits, or an error for words
// it does not write.
func decodeDrift(words []uint64, ib, nq int) (qi int, l, r int64, err error) {
	q, x, y, err := wire.ReadTaggedPair(words, ib)
	if err == nil && (q >= uint64(nq) || x > math.MaxInt64 || y > math.MaxInt64) {
		err = errBadMsg
	}
	return int(q), int64(x), int64(y), err
}

// encodeCounts appends a message of two counts, a site's rank of M and its
// count in "reloc-resp": one word when 6 + bits(a) + bits(b) ≤ 64
// (wire.AppendPair), else two.
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
