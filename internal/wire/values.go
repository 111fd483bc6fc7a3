package wire

import (
	"encoding/binary"
	"errors"
)

// ErrBadVarint reports a value that is not a canonical unsigned varint: more
// than ten bytes, a tenth byte that overflows 64 bits, or a padded encoding
// (a multi-byte varint ending in a zero byte). Canonical means a value
// sequence has exactly one encoding, so byte counts are a function of the
// values alone.
var ErrBadVarint = errors.New("wire: malformed varint")

// AppendValues appends vs to dst, each as an unsigned LEB128 varint (the
// encoding/binary format: seven bits per byte, low group first, high bit set
// on every byte but the last). A value below 2^7 costs one byte, below 2^14
// two, and so on up to ten for values of 2^63 and above. The number of bytes
// produced is len(result) - len(dst).
func AppendValues(dst []byte, vs []uint64) []byte {
	for _, v := range vs {
		if v < 0x80 {
			dst = append(dst, byte(v))
		} else {
			dst = binary.AppendUvarint(dst, v)
		}
	}
	return dst
}

// ReadValues decodes varints from src into dst until dst is full or src holds
// no further complete varint, and returns how many values it decoded and how
// many bytes of src they occupied. A varint cut short by the end of src is
// not an error — a caller streaming a long sequence through a window supplies
// the rest in its next call; a caller that passed the whole encoding treats
// nvals < len(dst) as truncation and nbytes < len(src) as trailing garbage.
// Malformed input returns ErrBadVarint with the counts up to the bad value.
func ReadValues(dst []uint64, src []byte) (nvals, nbytes int, err error) {
	for nvals < len(dst) && nbytes < len(src) {
		if b := src[nbytes]; b < 0x80 {
			dst[nvals] = uint64(b)
			nvals++
			nbytes++
			continue
		}
		v, w := binary.Uvarint(src[nbytes:])
		if w == 0 {
			if len(src)-nbytes >= binary.MaxVarintLen64 {
				return nvals, nbytes, ErrBadVarint
			}
			break // cut short: the caller may have more
		}
		if w < 0 || src[nbytes+w-1] == 0 {
			return nvals, nbytes, ErrBadVarint
		}
		dst[nvals] = v
		nvals++
		nbytes += w
	}
	return nvals, nbytes, nil
}
