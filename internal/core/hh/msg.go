package hh

import (
	"errors"
	"math"
	"math/bits"

	"disttrack/internal/wire"
)

// Reports and broadcasts as values. Every hh message travels as the words
// these functions write; the link (policy.up, policy.down) meters their
// length and hands them to the receiving half's recv, which reads only what
// they decode to.

// errBadMsg reports a message the encoders here do not write.
var errBadMsg = errors.New("hh: malformed message")

// recv adds a "freq" or "all" report's increment to C.m_x or C.m.
func (c *coord) recv(kind string, words []uint64) error {
	switch kind {
	case "freq":
		x, d, err := decodeFreq(words)
		if err == nil {
			c.cmx[x] += d
		}
		return err
	case "all":
		d, err := decodeCount(words)
		c.cm += d // 0 on error
		return err
	}
	return errBadMsg
}

// recv adopts a "newm" broadcast's C.m as S_j.m, or adds a departing site's
// "handoff" counts to the site's own.
func (s *site) recv(kind string, words []uint64) error {
	switch kind {
	case "newm":
		m, err := decodeCount(words)
		if err == nil {
			s.m = m
		}
		return err
	case "handoff":
		keys, counts, err := decodeHandoff(words)
		for i, x := range keys { // none on error
			s.tab.Get(x).Val.local += counts[i]
		}
		return err
	}
	return errBadMsg
}

// encodeFreq appends site j's "freq" report: item x and its unreported
// increment d, one word, [6-bit width of x | x | d], when 6 + bits(x) +
// bits(d) ≤ 64, else the two words x and d.
func encodeFreq(dst []uint64, x uint64, d int64) []uint64 {
	return wire.AppendPair(dst, x, uint64(d), uint64(d))
}

// decodeFreq returns the item and increment of a "freq" report, or an
// error for words encodeFreq does not write.
func decodeFreq(words []uint64) (x uint64, d int64, err error) {
	x, u, err := wire.ReadPair(words)
	if err == nil && u > math.MaxInt64 {
		err = errBadMsg
	}
	return x, int64(u), err
}

// encodeCount appends a message of one count, 1 word: a site's Δ(m) in
// "all", or the coordinator's C.m in "newm".
func encodeCount(dst []uint64, c int64) []uint64 { return append(dst, uint64(c)) }

// decodeCount returns the count of a message from encodeCount, or an error
// for words it does not write.
func decodeCount(words []uint64) (int64, error) {
	if len(words) != 1 || words[0] > math.MaxInt64 {
		return 0, errBadMsg
	}
	return int64(words[0]), nil
}

// handoffWidthBits is the width of a "handoff" header's count width, 0 … 64.
const handoffWidthBits = 7

// encodeHandoff appends a departing site's "handoff": its n items, keys
// (sorted, each once), with their local counts, which site 0 takes over.
// One header word n<<7 | w, w the width of the largest count, then the keys
// as a key list (wire.AppendKeys) and the counts in key order at w bits
// each (wire.AppendPacked). A site that holds nothing sends the one word 0.
func encodeHandoff(dst []uint64, keys []uint64, counts []int64) []uint64 {
	w := 0
	for _, c := range counts {
		w = max(w, bits.Len64(uint64(c)))
	}
	dst = append(dst, uint64(len(keys))<<handoffWidthBits|uint64(w))
	dst = wire.AppendKeys(dst, keys)
	return wire.AppendPacked(dst, len(counts), w, func(i int) uint64 { return uint64(counts[i]) })
}

// decodeHandoff returns the items and counts of a "handoff" from
// encodeHandoff, or an error for words it does not write: a header whose
// count the words cannot hold or whose width is not the largest count's, a
// malformed key list, an item twice, or a count of 0 or over
// math.MaxInt64.
func decodeHandoff(words []uint64) (keys []uint64, counts []int64, err error) {
	if len(words) == 0 {
		return nil, nil, errBadMsg
	}
	n, w := words[0]>>handoffWidthBits, int(words[0]&(1<<handoffWidthBits-1))
	if n == 0 {
		if w != 0 || len(words) != 1 {
			return nil, nil, errBadMsg
		}
		return nil, nil, nil
	}
	// n keys take n/8 words at least, so a larger n is no header's (and
	// n·w cannot overflow).
	if w == 0 || w > 64 || n > 8*uint64(len(words)) {
		return nil, nil, errBadMsg
	}
	body := (int(n)*w + 63) / 64
	if 1+body > len(words) {
		return nil, nil, errBadMsg
	}
	keys, err = wire.ReadKeys(words[1 : len(words)-body])
	if err != nil || uint64(len(keys)) != n {
		return nil, nil, errBadMsg
	}
	widest := 0
	counts = make([]int64, n)
	for i := range counts {
		c := wire.Unpack(words[len(words)-body:], w, i)
		if c == 0 || c > math.MaxInt64 || (i > 0 && keys[i] == keys[i-1]) {
			return nil, nil, errBadMsg
		}
		counts[i] = int64(c)
		widest = max(widest, bits.Len64(c))
	}
	if widest != w {
		return nil, nil, errBadMsg
	}
	return keys, counts, nil
}

// handoffOf returns site s's items with a nonzero local count, sorted, and
// those counts: what its "handoff" carries.
func handoffOf(s *site) (keys []uint64, counts []int64) {
	for _, sl := range s.tab.Sorted() {
		if sl.Val.local != 0 {
			keys = append(keys, sl.Key)
			counts = append(counts, sl.Val.local)
		}
	}
	return keys, counts
}
