package sitestore

import (
	"errors"
	"fmt"
	"math/bits"

	"disttrack/internal/wire"
)

// rankWidthBits is the width of the rank reply header's width field, which
// holds 1 … 64; the count n fills the header's other 57 bits.
const rankWidthBits = 7

// ErrBadRanks reports a rank reply EncodeRanks does not write for the
// bounds asked: a width of 0 or over 64, a count other than the number of
// bounds, or a body that is not ⌈n·w/64⌉ words.
var ErrBadRanks = errors.New("sitestore: malformed rank reply")

// EncodeRanks appends the rank-per-boundary reply of a site whose store is
// st, answering a round or a rebuild, to dst: its rank r[i] at each of the
// n bounds, sent as the first differences r[i] − r[i−1] (r[−1] = 0). A
// difference is an interval count, far below a word, and falls only where a
// sketch's rank estimate does, so each is zigzagged (0, −1, 1, −2, … ↦ 0,
// 1, 2, 3, …) and all are packed at the width w of the widest
// (wire.AppendPacked): one header word, n << 7 | w, then ⌈n·w/64⌉ words.
func EncodeRanks(dst []uint64, st Store, bounds []uint64) []uint64 {
	ranks := make([]int64, len(bounds))
	for i, b := range bounds {
		ranks[i] = st.RankOf(b)
	}
	return appendRanks(dst, ranks)
}

// appendRanks appends EncodeRanks' reply for ranks to dst.
func appendRanks(dst []uint64, ranks []int64) []uint64 {
	diff := func(i int) uint64 {
		if i == 0 {
			return zigzag(ranks[0])
		}
		return zigzag(ranks[i] - ranks[i-1])
	}
	w := 1
	for i := range ranks {
		w = max(w, bits.Len64(diff(i)))
	}
	dst = append(dst, uint64(len(ranks))<<rankWidthBits|uint64(w))
	return wire.AppendPacked(dst, len(ranks), w, diff)
}

// DecodeRanks returns the n ranks of a reply from EncodeRanks to a request
// naming n bounds, or an error wrapping ErrBadRanks for words EncodeRanks
// does not write. It reads no word past the reply.
func DecodeRanks(words []uint64, n int) ([]int64, error) {
	if len(words) == 0 {
		return nil, fmt.Errorf("%w: no header", ErrBadRanks)
	}
	h := words[0]
	w := int(h & (1<<rankWidthBits - 1))
	if w == 0 || w > 64 {
		return nil, fmt.Errorf("%w: width %d", ErrBadRanks, w)
	}
	if n < 0 || h>>rankWidthBits != uint64(n) {
		return nil, fmt.Errorf("%w: %d ranks for %d bounds", ErrBadRanks, h>>rankWidthBits, n)
	}
	body := words[1:]
	if len(body) != (n*w+63)/64 {
		return nil, fmt.Errorf("%w: %d body words for %d ranks at %d bits", ErrBadRanks, len(body), n, w)
	}
	ranks := make([]int64, n)
	prev := int64(0)
	for i := range ranks {
		prev += unzigzag(wire.Unpack(body, w, i))
		ranks[i] = prev
	}
	return ranks, nil
}

// zigzag maps a signed difference to an unsigned one whose width grows with
// its magnitude; unzigzag inverts it.
func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(z uint64) int64 { return int64(z>>1) ^ -int64(z&1) }

// AddCounts adds to counts[i] the count of interval i, [bounds[i−1],
// bounds[i]), from a reply's ranks at bounds, bounds[−1] being the
// universe's first value, 0, below which nothing lies: max(0, ranks[i] −
// ranks[i−1]). That is CountRange's value, clamped as CountRange clamps a
// sketch's difference.
func AddCounts(counts, ranks []int64) {
	prev := int64(0)
	for i, r := range ranks {
		counts[i] += max(0, r-prev)
		prev = r
	}
}
