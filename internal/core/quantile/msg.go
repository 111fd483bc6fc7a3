package quantile

import (
	"slices"

	"disttrack/internal/wire"
)

// Round-build and split messages as values. A round build's and a split's
// separators and counts travel as the words these functions write; the meter
// records their length (wire.Meter's UpMsg and DownMsg) and the receiving
// half reads only what they decode to. A merge's "seps" bitmap is
// wire.AppendBits' and its "round-counts" reply sitestore.EncodeRanks'
// (docs/architecture.md, "What the rank kinds share").

// encodeSeps appends the "seps" message of a cut made from scratch, which a
// site without separators receives: the separators, one word each.
func encodeSeps(dst, seps []uint64) []uint64 { return append(dst, seps...) }

// decodeSeps returns the separators of a "seps" message from encodeSeps.
func decodeSeps(words []uint64) []uint64 { return append([]uint64(nil), words...) }

// decodeKeep returns the separators of old that a merge's "seps" message
// keeps, in order. The message is a bitmap over old (wire.AppendBits), bit i
// set when old[i] is kept: ⌈L/64⌉ words for L old separators.
func decodeKeep(old, words []uint64) []uint64 {
	var seps []uint64
	for i, v := range old {
		if wire.Bit(words, i) {
			seps = append(seps, v)
		}
	}
	return seps
}

// encodeSplitReq appends the "split-req" message that opens the split of
// interval iv: the index alone, 1 word. A site reads the interval's bounds
// off its own separators.
func encodeSplitReq(dst []uint64, iv int) []uint64 { return append(dst, uint64(iv)) }

// decodeSplitReq returns the interval index of a "split-req" message.
func decodeSplitReq(words []uint64) (iv int) { return int(words[0]) }

// encodeSplitResp appends site j's "split-resp" reply: its local separators
// of the interval, one word each, then its count n_j in the interval, 1 word.
func encodeSplitResp(dst, seps []uint64, n int64) []uint64 {
	return append(append(dst, seps...), uint64(n))
}

// decodeSplitResp returns the separators and the count of a "split-resp"
// reply from encodeSplitResp.
func decodeSplitResp(words []uint64) (seps []uint64, n int64) {
	last := len(words) - 1
	return words[:last], int64(words[last])
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
