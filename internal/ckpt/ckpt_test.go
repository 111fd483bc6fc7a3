package ckpt

import (
	"bytes"
	"encoding/binary"
	"maps"
	"slices"
	"strings"
	"testing"
)

const testMagic = 0x54534554 // "TEST"

func frame(t *testing.T, version uint16, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, testMagic, version, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {7}, bytes.Repeat([]byte("state"), 1000)} {
		raw := frame(t, 3, payload)
		if want := frameHeaderLen + len(payload) + 4; len(raw) != want {
			t.Fatalf("frame of %d payload bytes is %d long, want %d", len(payload), len(raw), want)
		}
		version, got, err := ReadFrame(bytes.NewReader(raw), testMagic, len(payload))
		if err != nil || version != 3 || !bytes.Equal(got, payload) {
			t.Fatalf("round trip of %d bytes: version %d, %d bytes, err %v", len(payload), version, len(got), err)
		}
	}
}

func TestReadFrameRejects(t *testing.T) {
	good := frame(t, 1, []byte("payload"))
	corrupt := func(i int) []byte {
		b := bytes.Clone(good)
		b[i] ^= 0x40
		return b
	}
	for _, tc := range []struct {
		name    string
		raw     []byte
		maxLen  int
		wantErr string
	}{
		{"bad magic", corrupt(0), 64, "bad magic"},
		{"length over limit", good, 6, "exceeds limit"},
		{"length field grown", corrupt(6), 1 << 20, "read frame"}, // claims more bytes than the file has
		{"payload bit flip", corrupt(frameHeaderLen + 2), 64, "checksum mismatch"},
		{"checksum bit flip", corrupt(len(good) - 1), 64, "checksum mismatch"},
		{"torn header", good[:5], 64, "read frame header"},
		{"torn payload", good[:frameHeaderLen+3], 64, "read frame payload"},
		{"torn checksum", good[:len(good)-2], 64, "read frame checksum"},
	} {
		_, payload, err := ReadFrame(bytes.NewReader(tc.raw), testMagic, tc.maxLen)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) || payload != nil {
			t.Errorf("%s: payload %q err %v, want error containing %q", tc.name, payload, err, tc.wantErr)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	m := map[uint64]int64{9: -1, 2: 5, 1 << 60: 0}
	var e Encoder
	e.U8(200)
	e.U32(1 << 31)
	e.U64(1<<64 - 1)
	e.I64(-42)
	e.F64(0.02)
	e.Bool(true)
	e.Bool(false)
	e.String("tenant")
	e.Blob([]byte{1, 2, 3})
	e.U64s([]uint64{5, 6})
	e.I64s([]int64{-5})
	e.MapU64I64(m)
	if e.Len() != len(e.Bytes()) {
		t.Fatalf("Len %d, %d bytes", e.Len(), len(e.Bytes()))
	}
	d := NewDecoder(e.Bytes())
	if d.U8() != 200 || d.U32() != 1<<31 || d.U64() != 1<<64-1 || d.I64() != -42 || d.F64() != 0.02 ||
		!d.Bool() || d.Bool() || d.String() != "tenant" || !bytes.Equal(d.Blob(), []byte{1, 2, 3}) ||
		!slices.Equal(d.U64s(), []uint64{5, 6}) || !slices.Equal(d.I64s(), []int64{-5}) ||
		!maps.Equal(d.MapU64I64(), m) {
		t.Fatalf("values did not round-trip (err %v)", d.Err())
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err %v, %d bytes left over", d.Err(), d.Remaining())
	}
	// Deterministic bytes: the map is written in key order.
	var e2 Encoder
	e2.MapU64I64(maps.Clone(m))
	if want := e.Bytes()[e.Len()-e2.Len():]; !bytes.Equal(e2.Bytes(), want) {
		t.Fatal("the same map encoded to different bytes")
	}
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("Len %d after Reset", e.Len())
	}
}

// TestCountBoundsAllocation: a count is refused unless the bytes it implies
// are actually present, so a corrupt count cannot drive a huge allocation.
func TestCountBoundsAllocation(t *testing.T) {
	payload := binary.LittleEndian.AppendUint32(nil, 3)
	payload = append(payload, make([]byte, 3*12-1)...) // one byte short of 3 entries of 12
	if n, err := countOf(payload, 12); n != 0 || err == nil || !strings.Contains(err.Error(), "exceeds remaining") {
		t.Fatalf("short payload: count %d err %v, want refusal", n, err)
	}
	if n, err := countOf(append(payload, 0), 12); n != 3 || err != nil {
		t.Fatalf("exact payload: count %d err %v, want 3", n, err)
	}
	huge := binary.LittleEndian.AppendUint32(nil, 1<<32-1)
	for name, read := range map[string]func(*Decoder){
		"U64s":      func(d *Decoder) { d.U64s() },
		"I64s":      func(d *Decoder) { d.I64s() },
		"MapU64I64": func(d *Decoder) { d.MapU64I64() },
		"Blob":      func(d *Decoder) { d.Blob() },
		"String":    func(d *Decoder) { _ = d.String() },
	} {
		d := NewDecoder(huge)
		read(d)
		if d.Err() == nil {
			t.Errorf("%s accepted a count of 2^32-1 with no bytes behind it", name)
		}
	}
}

func countOf(payload []byte, elemSize int) (int, error) {
	d := NewDecoder(payload)
	return d.Count(elemSize), d.Err()
}

// TestStickyErr: after the first failure every read returns its zero value
// and Err keeps reporting that failure, not a later one.
func TestStickyErr(t *testing.T) {
	var e Encoder
	e.U8(2) // not a bool
	e.U64(77)
	d := NewDecoder(e.Bytes())
	if d.Bool() {
		t.Fatal("invalid bool decoded as true")
	}
	first := d.Err()
	if first == nil || !strings.Contains(first.Error(), "invalid bool") {
		t.Fatalf("err %v, want invalid bool", first)
	}
	if d.U64() != 0 || d.U32() != 0 || d.String() != "" || d.Blob() != nil || d.U64s() != nil || d.Count(1) != 0 {
		t.Fatal("a read after the failure returned a non-zero value")
	}
	if d.Remaining() != 8 {
		t.Fatalf("%d bytes remaining, want the 8 unread ones: reads after a failure must not consume", d.Remaining())
	}
	if d.Err() != first {
		t.Fatalf("err changed to %v", d.Err())
	}
	// Reading past the end is the other way in.
	d = NewDecoder([]byte{1, 2})
	if d.U32() != 0 || d.Err() == nil || !strings.Contains(d.Err().Error(), "need 4 bytes, have 2") {
		t.Fatalf("short read: err %v", d.Err())
	}
}

func TestPeekU8(t *testing.T) {
	d := NewDecoder([]byte{2, 1})
	if d.PeekU8() != 2 || d.Remaining() != 2 {
		t.Fatalf("peek read %d and left %d bytes, want 2 and 2", d.PeekU8(), d.Remaining())
	}
	if d.Bool(); d.Err() == nil {
		t.Fatal("the peeked byte 2 decoded as a bool")
	}
	if d.PeekU8() != 0 {
		t.Fatal("peek after a failure returned a byte")
	}
	if d = NewDecoder(nil); d.PeekU8() != 0 || d.Err() != nil {
		t.Fatalf("peek at the end: err %v, want none", d.Err())
	}
}
