package wire

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
)

// ErrBadKeys reports a key list AppendKeys does not write.
var ErrBadKeys = errors.New("wire: malformed key list")

// keysRaw is the form bit of a key list's header that says the keys after
// the first follow as raw words; clear, they follow as varint gaps.
const keysRaw = 1

// AppendKeys appends a list of keys to dst. keys must be sorted ascending,
// repeats allowed; it panics otherwise. No keys append nothing and one key
// is its raw word. n ≥ 2 keys are the smallest key as a raw word, then one
// varint header, (n−1)<<1 | form, and then the other n − 1 keys in one of
// two forms:
//
//   - gaps (form 0): each key's difference from the one before it, as a
//     varint; the header and the gaps are one byte stream packed eight bytes
//     to a word, byte b in bits 8·(b%8) … of word b/8, the last word padded
//     with zero bytes;
//   - raw (form 1): the header alone fills its word, and the keys follow one
//     word each.
//
// The gaps are sent when they take fewer words than the raw keys do, so n
// keys never cost more than n + 1 words. ReadKeys tells the forms apart by
// the header.
func AppendKeys(dst []uint64, keys []uint64) []uint64 {
	if !slices.IsSorted(keys) {
		panic("wire: AppendKeys: keys not sorted")
	}
	switch len(keys) {
	case 0:
		return dst
	case 1:
		return append(dst, keys[0])
	}
	n := len(keys)
	dst = append(dst, keys[0])
	hdr := uint64(n-1) << 1
	if gapBytes(keys) > 8*(n-1) {
		// The gaps would fill n words or more: send the raw keys.
		dst = appendBytes(dst, binary.AppendUvarint(nil, hdr|keysRaw))
		return append(dst, keys[1:]...)
	}
	stream := binary.AppendUvarint(make([]byte, 0, 8*n), hdr)
	for i := 1; i < n; i++ {
		stream = binary.AppendUvarint(stream, keys[i]-keys[i-1])
	}
	return appendBytes(dst, stream)
}

// gapBytes returns the length of the byte stream of the gap form of keys
// (n ≥ 2): the header's varint and the n − 1 gaps'. The header's length does
// not depend on the form bit. The gap form takes ⌈gapBytes/8⌉ words after
// the first key, the raw form n, so the gaps are sent exactly when
// gapBytes ≤ 8·(n − 1).
func gapBytes(keys []uint64) int {
	b := varintLen(uint64(len(keys)-1) << 1)
	for i := 1; i < len(keys); i++ {
		b += varintLen(keys[i] - keys[i-1])
	}
	return b
}

// varintLen returns the bytes of v's unsigned varint.
func varintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// appendBytes appends b to dst packed eight bytes to a word, byte i in bits
// 8·(i%8) … of word i/8, the last word padded with zero bytes.
func appendBytes(dst []uint64, b []byte) []uint64 {
	var tail [8]byte
	for len(b) >= 8 {
		dst = append(dst, binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	if len(b) > 0 {
		copy(tail[:], b)
		dst = append(dst, binary.LittleEndian.Uint64(tail[:]))
	}
	return dst
}

// ReadKeys returns the keys of a list from AppendKeys, which fills words
// exactly, or ErrBadKeys for words it does not write: a header count the
// words cannot hold or of 0, a varint that is not canonical (ErrBadVarint's
// rule), nonzero padding, a word past the stream's last byte, raw keys out
// of order, gaps whose sum passes 2^64 − 1, or a form AppendKeys would not
// choose for those keys.
func ReadKeys(words []uint64) ([]uint64, error) {
	switch len(words) {
	case 0:
		return nil, nil
	case 1:
		return []uint64{words[0]}, nil
	}
	stream := make([]byte, 0, 8*(len(words)-1))
	for _, w := range words[1:] {
		stream = binary.LittleEndian.AppendUint64(stream, w)
	}
	var hdr [1]uint64
	if nv, _, err := ReadValues(hdr[:], stream); nv != 1 || err != nil {
		return nil, ErrBadKeys
	}
	hb := varintLen(hdr[0])
	n1 := hdr[0] >> 1
	if n1 == 0 {
		return nil, ErrBadKeys // one key is its raw word
	}
	if hdr[0]&keysRaw != 0 {
		if n1 != uint64(len(words)-2) || hb > 8 || !zero(stream[hb:8]) {
			return nil, ErrBadKeys
		}
		keys := append([]uint64{words[0]}, words[2:]...)
		if !slices.IsSorted(keys) || gapBytes(keys) <= 8*(len(keys)-1) {
			return nil, ErrBadKeys
		}
		return keys, nil
	}
	// Every gap takes a byte at least.
	if n1 > uint64(len(stream)-hb) {
		return nil, ErrBadKeys
	}
	keys := make([]uint64, n1+1)
	keys[0] = words[0]
	nv, gb, err := ReadValues(keys[1:], stream[hb:])
	end := hb + gb
	if err != nil || nv != len(keys)-1 || (end+7)/8 != len(words)-1 || !zero(stream[end:]) || end > 8*(len(keys)-1) {
		return nil, ErrBadKeys
	}
	for i := 1; i < len(keys); i++ {
		k, carry := bits.Add64(keys[i-1], keys[i], 0)
		if carry != 0 {
			return nil, ErrBadKeys
		}
		keys[i] = k
	}
	return keys, nil
}

// zero reports whether every byte of b is zero.
func zero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
