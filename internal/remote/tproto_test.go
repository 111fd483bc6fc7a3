package remote

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"slices"
	"testing"
	"testing/iotest"

	"disttrack/internal/runtime"
)

// readOne decodes the first frame of data.
func readOne(data []byte) (TFrame, int, error) {
	return NewTFrameReader(bytes.NewReader(data)).Read()
}

// WriteTFrame encodes one frame and writes it, as a hand-driven peer does.
func WriteTFrame(w io.Writer, f TFrame) error {
	buf, err := AppendTFrame(nil, f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// encode is AppendTFrame for frames the test knows to be valid.
func encode(t testing.TB, f TFrame) []byte {
	t.Helper()
	buf, err := AppendTFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestTFrameRoundTrip(t *testing.T) {
	frames := []TFrame{
		{Type: TypeNodeHello, Tenant: "edge-7"},
		{Type: TypeNodeWelcome, Seq: 42},
		{Type: TypeBatch, Seq: 9, Kind: TKindHH, Site: 3, Tenant: "clicks",
			Values: []uint64{1, 2, 3, 1 << 60}},
		{Type: TypeBatch, Seq: 10, Kind: TKindAllQ, Site: 0, Tenant: "lat.ency-2"},
		{Type: TypeBatchAck, Seq: 10},
		{Type: TypeNetFlush, Seq: 1},
		{Type: TypeNetFlushAck, Seq: 1},
		{Type: TypeBatchReject, Seq: 9, Tenant: "tenant \"x\" not found"},
		{Type: TypeNodeGoodbye},
	}
	var buf bytes.Buffer
	sizes := make([]int, len(frames))
	for i, f := range frames {
		before := buf.Len()
		if err := WriteTFrame(&buf, f); err != nil {
			t.Fatalf("write %+v: %v", f, err)
		}
		sizes[i] = buf.Len() - before
	}
	rd := NewTFrameReader(&buf)
	for i, want := range frames {
		got, n, err := rd.Read()
		if err != nil {
			t.Fatalf("read (want %+v): %v", want, err)
		}
		if n != sizes[i] {
			t.Fatalf("frame %d: decoder reports %d bytes, encoder wrote %d", i, n, sizes[i])
		}
		if got.Type != want.Type || got.Seq != want.Seq || got.Kind != want.Kind ||
			got.Site != want.Site || got.Tenant != want.Tenant {
			t.Fatalf("round trip %+v != %+v", got, want)
		}
		if len(got.Values) != len(want.Values) {
			t.Fatalf("values %v != %v", got.Values, want.Values)
		}
		for i := range want.Values {
			if got.Values[i] != want.Values[i] {
				t.Fatalf("values %v != %v", got.Values, want.Values)
			}
		}
	}
	if _, _, err := rd.Read(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestTFrameGolden pins the version-1 byte layout: a change here is a wire
// format change and needs a new ProtoVersion.
func TestTFrameGolden(t *testing.T) {
	f := TFrame{Type: TypeBatch, Seq: 0x0102030405060708, Kind: TKindQuantile, Site: 0x0a0b0c0d, Tenant: "hh",
		Values: []uint64{0, 127, 128, 1<<20 - 1, 1<<40 - 1, math.MaxUint64}}
	want := []byte{
		0x12,                   // type
		0x00, 0x00, 0x00, 0x2c, // payload length: 19 fixed + 2 tenant + 23 value bytes
		0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // seq
		0x01,                   // kind
		0x0a, 0x0b, 0x0c, 0x0d, // site
		0x00, 0x02, // tenant length
		0x00, 0x00, 0x00, 0x06, // value count
		'h', 'h',
		0x00,       // 0
		0x7f,       // 127
		0x80, 0x01, // 128
		0xff, 0xff, 0x3f, // 2^20-1
		0xff, 0xff, 0xff, 0xff, 0xff, 0x1f, // 2^40-1
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, // MaxUint64
	}
	got := encode(t, f)
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded\n%x\nwant\n%x", got, want)
	}
	back, n, err := readOne(want)
	if err != nil || n != len(want) || !slices.Equal(back.Values, f.Values) || back.Tenant != f.Tenant {
		t.Fatalf("decode of the golden bytes: %+v, %d bytes, %v", back, n, err)
	}
	// Control frames are the fixed header alone, in every version.
	if ack := encode(t, TFrame{Type: TypeBatchAck, Seq: 7}); len(ack) != 24 {
		t.Fatalf("ack frame is %d bytes, want 24", len(ack))
	}
}

func TestTFrameWriteValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTFrame(&buf, TFrame{Type: 0x7f}); err == nil {
		t.Fatal("unknown type should error")
	}
	big := make([]byte, MaxTenantLen+1)
	if err := WriteTFrame(&buf, TFrame{Type: TypeBatch, Tenant: string(big)}); err == nil {
		t.Fatal("oversized tenant should error")
	}
	if err := WriteTFrame(&buf, TFrame{Type: TypeBatch, Values: make([]uint64, MaxBatchLen+1)}); err == nil {
		t.Fatal("oversized batch should error")
	}
}

func TestTFrameReadRejectsCorruptLengths(t *testing.T) {
	// Enough values that a decoder which drew its slice too early would draw
	// it from the pool.
	vals := make([]uint64, 100)
	for i := range vals {
		vals[i] = uint64(i) << 9
	}
	valid := encode(t, TFrame{Type: TypeBatch, Tenant: "t", Values: vals})
	const countAt, valuesAt = tframeHeader + 15, tframeHeader + tframeFixed + 1
	patch := func(at int, b ...byte) []byte {
		raw := slices.Clone(valid)
		copy(raw[at:], b)
		return raw
	}
	setPayload := func(raw []byte) []byte {
		binary.BigEndian.PutUint32(raw[1:5], uint32(len(raw)-tframeHeader))
		return raw
	}
	elevenBytes := append(bytes.Repeat([]byte{0x80}, 10), 0x01)
	overflow := append(bytes.Repeat([]byte{0xff}, 9), 0x02)
	cases := map[string][]byte{
		// The payload length says more than tenant + values account for.
		"inflated payload length": setPayload(append(slices.Clone(valid), make([]byte, 8)...)),
		// A payload length beyond the hard cap must be refused before any
		// allocation of that size.
		"payload beyond the cap": patch(1, 0xff, 0xff, 0xff, 0xff),
		"unknown type":           patch(0, 0x7f),
		// More values than the payload has bytes for: no varint is shorter
		// than a byte, so this is known before a slice is drawn.
		"count larger than payload": patch(countAt, 0x00, 0x0f, 0x00, 0x00),
		"count too small":           patch(countAt, 0x00, 0x00, 0x00, 0x01),
		"11-byte varint":            setPayload(append(valid[:valuesAt:valuesAt], append(elevenBytes, valid[valuesAt+1:]...)...)),
		"overflowing 10th byte":     setPayload(append(valid[:valuesAt:valuesAt], append(overflow, valid[valuesAt+1:]...)...)),
		"padded varint":             setPayload(append(valid[:valuesAt:valuesAt], append([]byte{0x80, 0x00}, valid[valuesAt+1:]...)...)),
		"trailing garbage":          setPayload(append(slices.Clone(valid), 0x05)),
		"values cut short":          valid[:len(valid)-3],
	}
	for name, raw := range cases {
		out := runtime.BatchesOut()
		f, n, err := readOne(raw)
		if err == nil {
			t.Errorf("%s: decoded %d bytes into %d values, want an error", name, n, len(f.Values))
		}
		if f.Values != nil {
			t.Errorf("%s: a failed decode returned a value slice", name)
		}
		if leaked := runtime.BatchesOut() - out; leaked != 0 {
			t.Errorf("%s: %d pooled batches drawn and not returned", name, leaked)
		}
	}
	// The cases are corruptions of a frame that does decode.
	if f, n, err := readOne(valid); err != nil || n != len(valid) || !slices.Equal(f.Values, vals) {
		t.Fatalf("uncorrupted frame: %d bytes, %v", n, err)
	}
}

// TestTFrameValuesSpanReadBuffer decodes a batch far larger than the
// reader's buffer and fed a byte at a time, whose values therefore arrive
// window by window with varints cut at the window edges.
func TestTFrameValuesSpanReadBuffer(t *testing.T) {
	vals := make([]uint64, 3*tframeReadBuf)
	for i := range vals {
		vals[i] = uint64(1) << (i % 64)
	}
	raw := encode(t, TFrame{Type: TypeBatch, Seq: 1, Tenant: "big", Values: vals})
	f, n, err := NewTFrameReader(iotest.OneByteReader(bytes.NewReader(raw))).Read()
	if err != nil || n != len(raw) || !slices.Equal(f.Values, vals) {
		t.Fatalf("decoded %d of %d bytes, %d of %d values, err %v", n, len(raw), len(f.Values), len(vals), err)
	}
	runtime.PutBatch(f.Values)
}

// TestTFrameCodecDoesNotAllocate is the steady-state guard for the link's hot
// path: encoding a full site-node frame into a connection-owned buffer and
// decoding it from a connection's reader into a pooled slice allocate nothing.
func TestTFrameCodecDoesNotAllocate(t *testing.T) {
	vals := make([]uint64, 256)
	for i := range vals {
		vals[i] = uint64(i * i * i)
	}
	f := TFrame{Type: TypeBatch, Seq: 1, Kind: TKindHH, Site: 3, Tenant: "clicks", Values: vals}
	var pipe bytes.Buffer // the in-memory link
	rd := NewTFrameReader(&pipe)
	var out []byte
	cycle := func() {
		var err error
		if out, err = AppendTFrame(out[:0], f); err != nil {
			t.Fatal(err)
		}
		pipe.Write(out)
		got, n, err := rd.Read()
		if err != nil || n != len(out) || len(got.Values) != len(vals) || got.Tenant != f.Tenant {
			t.Fatalf("decoded %d bytes (%d written), %d values, err %v", n, len(out), len(got.Values), err)
		}
		runtime.PutBatch(got.Values)
	}
	cycle() // first use sizes the buffers and interns the tenant name
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("encode + decode of a 256-value frame allocates %.1f times per frame, want 0", allocs)
	}
}

func TestTFrameWords(t *testing.T) {
	f := TFrame{Type: TypeBatch, Tenant: "x", Values: make([]uint64, 5)}
	if f.Words() != 8 {
		t.Fatalf("Words = %d, want header 3 + 5 values", f.Words())
	}
	if (TFrame{Type: TypeBatchAck}).Words() != 3 {
		t.Fatal("ack frames cost the header alone")
	}
}
