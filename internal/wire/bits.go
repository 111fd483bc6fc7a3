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

// ErrBadPair reports a pair message AppendPair or AppendTaggedPair does not
// write: of the wrong length, one word whose width is over what the word
// leaves or whose a does not end at that width, or a tag past its width.
var ErrBadPair = errors.New("wire: malformed pair")

// AppendPair appends the pair (a, b) to dst. It is one word, [6-bit width
// w of a | a | b] from the low bit up, w being bits.Len64(a), when 6 + w +
// bits.Len64(bmax) ≤ 64, where bmax ≥ b is the largest b the receiver
// allows (b itself when it knows no bound); otherwise a and b as two words.
// The receiver tells the forms apart by length (ReadPair).
func AppendPair(dst []uint64, a, b, bmax uint64) []uint64 {
	return AppendTaggedPair(dst, 0, 0, a, b, bmax)
}

// ReadPair returns the pair of a message from AppendPair, or ErrBadPair.
func ReadPair(words []uint64) (a, b uint64, err error) {
	_, a, b, err = ReadTaggedPair(words, 0)
	return a, b, err
}

// AppendTaggedPair appends the pair (a, b) with a tag below 2^tagBits, a
// width both ends know (0 ≤ tagBits ≤ 32), beside AppendPair's width
// header: one word, [6-bit width w of a | tag | a | b], when 6 + tagBits +
// w + bits.Len64(bmax) ≤ 64, else the words tag, a and b (with tagBits = 0
// the tag is left out, as in AppendPair).
func AppendTaggedPair(dst []uint64, tag uint64, tagBits int, a, b, bmax uint64) []uint64 {
	if tagBits < 0 || tagBits > 32 || tag>>tagBits != 0 {
		panic("wire: AppendTaggedPair: tag past its width")
	}
	w := bits.Len64(a)
	if pairWidthBits+tagBits+w+bits.Len64(bmax) <= 64 {
		return append(dst, uint64(w)|tag<<pairWidthBits|a<<(pairWidthBits+tagBits)|b<<(pairWidthBits+tagBits+w))
	}
	if tagBits > 0 {
		dst = append(dst, tag)
	}
	return append(dst, a, b)
}

// ReadTaggedPair returns the tag and pair of a message from
// AppendTaggedPair at tagBits, or ErrBadPair.
func ReadTaggedPair(words []uint64, tagBits int) (tag, a, b uint64, err error) {
	long := 2
	if tagBits > 0 {
		long = 3
	}
	switch len(words) {
	case 1:
		word := words[0]
		w := int(word & (1<<pairWidthBits - 1))
		at := pairWidthBits + tagBits
		if at+w > 64 {
			return 0, 0, 0, ErrBadPair
		}
		tag = word >> pairWidthBits & (1<<tagBits - 1)
		a = word >> at & (1<<w - 1)
		if bits.Len64(a) != w {
			return 0, 0, 0, ErrBadPair
		}
		return tag, a, word >> (at + w), nil
	case long:
		if tagBits > 0 {
			tag, words = words[0], words[1:]
			if tag>>tagBits != 0 {
				return 0, 0, 0, ErrBadPair
			}
		}
		return tag, words[0], words[1], nil
	}
	return 0, 0, 0, ErrBadPair
}
