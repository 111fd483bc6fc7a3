// Package ckpt is the shared binary codec for durable state: engine
// checkpoints, policy state blobs and WAL records all build on it. It has
// two layers:
//
//   - Encoder/Decoder: little-endian primitives over an in-memory buffer.
//     The Decoder is hardened for untrusted input — every read is bounds
//     checked, every count is validated against the bytes actually present
//     before allocation, and errors are sticky — so decoders built on it
//     return errors (never panic, never over-allocate) on arbitrary bytes.
//   - WriteFrame/ReadFrame: the on-disk envelope. A frame is
//     [magic u32][version u16][len u32][payload][crc32(payload) u32],
//     so a reader can reject foreign files (magic), unknown formats
//     (version), and torn or bit-rotted payloads (length + checksum)
//     before handing a single byte to the payload decoder.
//
// Everything is stdlib-only by design (see docs/durability.md).
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"slices"
)

// Encoder accumulates a payload. The zero value is ready to use.
type Encoder struct {
	b []byte
}

// Bytes returns the encoded payload. The slice aliases the encoder's
// buffer; it is valid until the next append.
func (e *Encoder) Bytes() []byte { return e.b }

// Reset empties the encoder, retaining its buffer for reuse.
func (e *Encoder) Reset() { e.b = e.b[:0] }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.b) }

func (e *Encoder) U8(v uint8)   { e.b = append(e.b, v) }
func (e *Encoder) U32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *Encoder) U64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *Encoder) I64(v int64)  { e.U64(uint64(v)) }
func (e *Encoder) F64(v float64) {
	e.U64(math.Float64bits(v))
}

func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// String writes a u32 length prefix followed by the bytes.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// Blob writes a u32 length prefix followed by the raw bytes.
func (e *Encoder) Blob(p []byte) {
	e.U32(uint32(len(p)))
	e.b = append(e.b, p...)
}

// U64s writes a u32 count followed by the values.
func (e *Encoder) U64s(xs []uint64) {
	e.U32(uint32(len(xs)))
	for _, x := range xs {
		e.U64(x)
	}
}

// I64s writes a u32 count followed by the values.
func (e *Encoder) I64s(xs []int64) {
	e.U32(uint32(len(xs)))
	for _, x := range xs {
		e.I64(x)
	}
}

// MapU64I64 writes the map in ascending key order (deterministic bytes).
func (e *Encoder) MapU64I64(m map[uint64]int64) {
	e.U32(uint32(len(m)))
	for _, k := range slices.Sorted(maps.Keys(m)) {
		e.U64(k)
		e.I64(m[k])
	}
}

// Decoder reads a payload produced by Encoder. Errors are sticky: after
// the first failure every read returns the zero value and Err() reports
// the failure, so decode sequences need a single error check at the end.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder wraps b; the decoder does not copy it.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("ckpt: "+format+" at offset %d", append(args, d.off)...)
	}
}

// take returns the next n bytes, or nil after recording a failure.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.fail("need %d bytes, have %d", n, d.Remaining())
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

func (d *Decoder) U8() uint8 {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// PeekU8 returns the next byte without consuming it, or 0 after a failure
// or at the end (recording nothing: the read that follows fails instead).
func (d *Decoder) PeekU8() uint8 {
	if d.err != nil || d.Remaining() < 1 {
		return 0
	}
	return d.b[d.off]
}

func (d *Decoder) U32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (d *Decoder) U64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (d *Decoder) I64() int64   { return int64(d.U64()) }
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("invalid bool")
		return false
	}
}

// Count reads a u32 element count and validates it against the bytes
// remaining at elemSize bytes per element (the minimum encoded size), so
// corrupt counts cannot drive allocation. On failure it records the sticky
// error and returns 0.
func (d *Decoder) Count(elemSize int) int { return d.count(elemSize) }

// count reads a u32 count and validates it against the bytes remaining
// (elemSize per element), so corrupt counts cannot trigger huge
// allocations.
func (d *Decoder) count(elemSize int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if elemSize > 0 && d.Remaining() < n*elemSize {
		d.fail("count %d exceeds remaining %d bytes", n, d.Remaining())
		return 0
	}
	return n
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.count(1)
	return string(d.take(n))
}

// Blob reads a length-prefixed byte slice (copied).
func (d *Decoder) Blob() []byte {
	n := d.count(1)
	p := d.take(n)
	if p == nil {
		return nil
	}
	return append([]byte(nil), p...)
}

// U64s reads a count-prefixed slice of values.
func (d *Decoder) U64s() []uint64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = d.U64()
	}
	return xs
}

// I64s reads a count-prefixed slice of values.
func (d *Decoder) I64s() []int64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = d.I64()
	}
	return xs
}

// MapU64I64 reads a map written by Encoder.MapU64I64.
func (d *Decoder) MapU64I64() map[uint64]int64 {
	n := d.count(16)
	if d.err != nil {
		return nil
	}
	m := make(map[uint64]int64, n)
	for i := 0; i < n; i++ {
		k := d.U64()
		v := d.I64()
		if d.err != nil {
			return nil
		}
		m[k] = v
	}
	return m
}

// Frame envelope -----------------------------------------------------------

const frameHeaderLen = 4 + 2 + 4 // magic + version + payload length

// WriteFrame writes one framed payload:
// [magic][version][len][payload][crc32c(payload)].
func WriteFrame(w io.Writer, magic uint32, version uint16, payload []byte) error {
	hdr := make([]byte, frameHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint16(hdr[4:6], version)
	binary.LittleEndian.PutUint32(hdr[6:10], uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("ckpt: write frame: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("ckpt: write frame: %w", err)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(crc[:]); err != nil {
		return fmt.Errorf("ckpt: write frame: %w", err)
	}
	return nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ReadFrame reads and verifies one frame written by WriteFrame. It rejects
// a wrong magic, a payload longer than maxLen (guarding allocation against
// corrupt length fields), and a checksum mismatch. It returns the format
// version alongside the payload so callers can dispatch on it.
func ReadFrame(r io.Reader, magic uint32, maxLen int) (version uint16, payload []byte, err error) {
	hdr := make([]byte, frameHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, fmt.Errorf("ckpt: read frame header: %w", err)
	}
	if got := binary.LittleEndian.Uint32(hdr[0:4]); got != magic {
		return 0, nil, fmt.Errorf("ckpt: bad magic %#x, want %#x", got, magic)
	}
	version = binary.LittleEndian.Uint16(hdr[4:6])
	n := int(binary.LittleEndian.Uint32(hdr[6:10]))
	if n < 0 || n > maxLen {
		return 0, nil, fmt.Errorf("ckpt: frame length %d exceeds limit %d", n, maxLen)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("ckpt: read frame payload: %w", err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return 0, nil, fmt.Errorf("ckpt: read frame checksum: %w", err)
	}
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(crc[:]); got != want {
		return 0, nil, fmt.Errorf("ckpt: checksum mismatch: computed %#x, stored %#x", got, want)
	}
	return version, payload, nil
}
