package wire

import (
	"errors"
	"math/bits"
)

// AppendPacked appends n values to dst at w bits each (1 ≤ w ≤ 64), as
// ⌈n·w/64⌉ words: value i fills bits i·w … i·w + w − 1 of the packed
// stream, whose bit b is bit b%64 of word b/64, so a value may straddle two
// words. v(i) must be below 2^w; v is called once per value, for i = 0 …
// n−1 in order.
func AppendPacked(dst []uint64, n, w int, v func(i int) uint64) []uint64 {
	at := len(dst)
	dst = append(dst, make([]uint64, (n*w+63)/64)...)
	for i := range n {
		x, b := v(i), i*w
		word, off := at+b/64, b%64
		dst[word] |= x << off
		if off+w > 64 {
			dst[word+1] |= x >> (64 - off)
		}
	}
	return dst
}

// Unpack returns value i of a stream AppendPacked wrote at w bits; bits
// past the last word read as clear.
func Unpack(words []uint64, w, i int) uint64 {
	b := i * w
	word, off := b/64, b%64
	var x uint64
	if word < len(words) {
		x = words[word] >> off
	}
	if off+w > 64 && word+1 < len(words) {
		x |= words[word+1] << (64 - off)
	}
	if w < 64 {
		x &= 1<<w - 1
	}
	return x
}

// AppendBits appends an n-bit map to dst as ⌈n/64⌉ words, bit i being bit
// i%64 of word i/64, set when set(i) holds: AppendPacked at one bit per
// value. set is called once per bit, for i = 0 … n−1 in order.
func AppendBits(dst []uint64, n int, set func(i int) bool) []uint64 {
	return AppendPacked(dst, n, 1, func(i int) uint64 {
		if set(i) {
			return 1
		}
		return 0
	})
}

// Bit reports whether bit i of a map written by AppendBits is set; a bit
// past the last word is clear.
func Bit(words []uint64, i int) bool { return Unpack(words, 1, i) == 1 }

// pairWidthBits is the width of a packed pair's header, which holds a's
// width, 0 … 58.
const pairWidthBits = 6

// ErrBadPair reports a pair message AppendPair does not write: other than
// one or two words, or one word whose width is over 58 or whose a does not
// end at that width.
var ErrBadPair = errors.New("wire: malformed pair")

// AppendPair appends the pair (a, b) to dst. It is one word, [6-bit width
// w of a | a | b] from the low bit up, w being bits.Len64(a), when 6 + w +
// bits.Len64(bmax) ≤ 64, where bmax ≥ b is the largest b the receiver
// allows (b itself when it knows no bound); otherwise a and b as two words.
// The receiver tells the forms apart by length (ReadPair).
func AppendPair(dst []uint64, a, b, bmax uint64) []uint64 {
	if word, ok := packPair(a, b, bmax); ok {
		return append(dst, word)
	}
	return append(dst, a, b)
}

// ReadPair returns the pair of a message from AppendPair, or ErrBadPair.
func ReadPair(words []uint64) (a, b uint64, err error) {
	switch len(words) {
	case 1:
		return unpackPair(words[0])
	case 2:
		return words[0], words[1], nil
	}
	return 0, 0, ErrBadPair
}

// packPair returns AppendPair's one-word form of (a, b), and whether it
// fits.
func packPair(a, b, bmax uint64) (word uint64, ok bool) {
	w := bits.Len64(a)
	if pairWidthBits+w+bits.Len64(bmax) > 64 {
		return 0, false
	}
	return uint64(w) | a<<pairWidthBits | b<<(pairWidthBits+w), true
}

// unpackPair returns the pair of a word from packPair, or ErrBadPair.
func unpackPair(word uint64) (a, b uint64, err error) {
	w := int(word & (1<<pairWidthBits - 1))
	if pairWidthBits+w > 64 {
		return 0, 0, ErrBadPair
	}
	a = word >> pairWidthBits & (1<<w - 1)
	if bits.Len64(a) != w {
		return 0, 0, ErrBadPair
	}
	return a, word >> (pairWidthBits + w), nil
}
