package wire

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"
)

func TestValuesRoundTrip(t *testing.T) {
	var vals []uint64
	for shift := 0; shift < 64; shift++ {
		vals = append(vals, uint64(1)<<shift-1, uint64(1)<<shift, uint64(1)<<shift+1)
	}
	vals = append(vals, math.MaxUint64)
	enc := AppendValues([]byte("prefix"), vals)
	if !bytes.HasPrefix(enc, []byte("prefix")) {
		t.Fatal("AppendValues overwrote its destination")
	}
	enc = enc[len("prefix"):]
	got := make([]uint64, len(vals))
	nv, nb, err := ReadValues(got, enc)
	if err != nil || nv != len(vals) || nb != len(enc) || !slices.Equal(got, vals) {
		t.Fatalf("decoded %d of %d values from %d of %d bytes: %v", nv, len(vals), nb, len(enc), err)
	}
	// A full destination stops the decoder, leaving the rest of src alone.
	if nv, nb, err := ReadValues(got[:2], enc); err != nil || nv != 2 || nb != 2 {
		t.Fatalf("two-value destination: %d values, %d bytes, %v", nv, nb, err)
	}
}

// TestReadValuesWindows feeds an encoding through windows of every small
// size, as a stream reader does: a varint cut by a window's end is not an
// error, it is decoded once the next window brings the rest.
func TestReadValuesWindows(t *testing.T) {
	vals := []uint64{0, 1 << 7, 1<<14 - 1, 1 << 21, 1 << 35, 1<<63 + 5, 3, math.MaxUint64, 127}
	enc := AppendValues(nil, vals)
	for win := 10; win <= len(enc); win++ { // a window must hold one maximal varint
		got := make([]uint64, len(vals))
		done, off := 0, 0
		for done < len(vals) {
			nv, nb, err := ReadValues(got[done:], enc[off:min(off+win, len(enc))])
			if err != nil {
				t.Fatalf("window %d at byte %d: %v", win, off, err)
			}
			if nb == 0 {
				t.Fatalf("window %d at byte %d: no progress", win, off)
			}
			done, off = done+nv, off+nb
		}
		if off != len(enc) || !slices.Equal(got, vals) {
			t.Fatalf("window %d: consumed %d of %d bytes, got %v", win, off, len(enc), got)
		}
	}
	// The whole encoding minus its last byte: the caller sees a short count,
	// not an error, and knows it has no more to give.
	got := make([]uint64, len(vals))
	if nv, _, err := ReadValues(got, enc[:len(enc)-1]); err != nil || nv != len(vals)-1 {
		t.Fatalf("truncated encoding: %d values, %v", nv, err)
	}
}

func TestReadValuesRejectsMalformed(t *testing.T) {
	for name, src := range map[string][]byte{
		"11-byte varint":        append(bytes.Repeat([]byte{0x80}, 10), 0x01),
		"10 continuation bytes": bytes.Repeat([]byte{0x80}, 10),
		"overflowing 10th byte": append(bytes.Repeat([]byte{0xff}, 9), 0x02),
		"padded zero":           {0x80, 0x00},
		"padded value":          {0xff, 0x80, 0x00},
	} {
		dst := make([]uint64, 2)
		nv, nb, err := ReadValues(dst, append([]byte{0x05}, src...))
		if !errors.Is(err, ErrBadVarint) || nv != 1 || nb != 1 {
			t.Errorf("%s: %d values, %d bytes, err %v; want the good value, then ErrBadVarint", name, nv, nb, err)
		}
	}
}
