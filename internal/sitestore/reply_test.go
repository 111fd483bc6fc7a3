package sitestore

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"slices"
	"testing"
)

// replyWords is the length of EncodeRanks' reply to ranks, worked out from
// the rule: a header word and the zigzagged differences at the width of the
// widest, at least 1.
func replyWords(ranks []int64) int {
	w, prev := 1, int64(0)
	for _, r := range ranks {
		d := r - prev
		z := uint64(d) << 1
		if d < 0 {
			z = ^z
		}
		w = max(w, bits.Len64(z))
		prev = r
	}
	return 1 + (len(ranks)*w+63)/64
}

// checkRanksRoundTrip fails unless ranks decode from their reply exactly,
// and the reply has the length replyWords names.
func checkRanksRoundTrip(t *testing.T, name string, words []uint64, ranks []int64) {
	t.Helper()
	if want := replyWords(ranks); len(words) != want {
		t.Fatalf("%s: %d ranks: reply of %d words, want %d", name, len(ranks), len(words), want)
	}
	got, err := DecodeRanks(words, len(ranks))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !slices.Equal(got, ranks) {
		t.Fatalf("%s: decoded %v, want %v", name, got, ranks)
	}
}

// TestRankReplyCodec pins the rank reply at its edges: widths 1 and 64, a
// difference of 2⁶² and a negative one, 0, 1, 64 and 65 ranks, values that
// straddle a word boundary, and the ranks of an exact and of a GK store,
// whose estimates may fall. Each decodes to exactly its ranks from a reply
// of exactly 1 + ⌈n·w/64⌉ words.
func TestRankReplyCodec(t *testing.T) {
	step := func(n int, d int64) []int64 {
		r := make([]int64, n)
		for i := range r {
			r[i] = int64(i+1) * d
		}
		return r
	}
	for _, tc := range []struct {
		name  string
		ranks []int64
		width int
	}{
		{"n=0", nil, 1},
		{"n=1", []int64{5}, 4}, // zigzag(5) = 10
		{"w=1 zeros", make([]int64, 65), 1},
		{"w=1 n=64", step(64, 0), 1},
		{"w=64 2^62", []int64{1 << 62}, 64},
		{"2^62 then back", []int64{1 << 62, 0, 3}, 64},
		{"negative", []int64{10, 7, 7, 12}, 5}, // zigzag(10) = 20
		{"straddle w=3 n=65", step(65, 2), 3},  // value 21 spans bits 63–65
		{"straddle w=7 n=64", step(64, 50), 7}, // value 9 spans bits 63–69
		{"w=63", []int64{math.MaxInt64 >> 1, 0}, 63},
	} {
		words := appendRanks(nil, tc.ranks)
		if w := int(words[0] & (1<<rankWidthBits - 1)); w != tc.width {
			t.Fatalf("%s: width %d, want %d", tc.name, w, tc.width)
		}
		checkRanksRoundTrip(t, tc.name, words, tc.ranks)
	}

	xs := randomItems(20000, 21)
	bounds := append(randomItems(200, 22), 0, xs[3], math.MaxUint64)
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)
	falls := 0
	for name, st := range map[string]Store{"exact": NewExact(), "gk": NewGK(0.01)} {
		fill(st, xs)
		ranks := make([]int64, len(bounds))
		for i, b := range bounds {
			ranks[i] = st.RankOf(b)
			if i > 0 && ranks[i] < ranks[i-1] {
				falls++
			}
		}
		checkRanksRoundTrip(t, name, EncodeRanks([]uint64{9}, st, bounds)[1:], ranks)
	}
	if falls == 0 {
		t.Fatal("no store's rank fell between two bounds: the GK case tests no negative difference")
	}
}

// TestDecodeRanksRefuses: a width of 0 or over 64, a count other than the
// bounds asked, and a body of the wrong length are errors, not panics.
func TestDecodeRanksRefuses(t *testing.T) {
	good := appendRanks(nil, []int64{3, 9, 40})
	for _, tc := range []struct {
		name  string
		words []uint64
		n     int
	}{
		{"empty", nil, 0},
		{"width 0", []uint64{3 << rankWidthBits, 0}, 3},
		{"width 65", []uint64{3<<rankWidthBits | 65, 0, 0, 0, 0}, 3},
		{"count", good, 4},
		{"count 0 asked 1", appendRanks(nil, nil), 1},
		{"body short", good[:1], 3},
		{"body long", append(slices.Clone(good), 0), 3},
	} {
		if _, err := DecodeRanks(tc.words, tc.n); !errors.Is(err, ErrBadRanks) {
			t.Fatalf("%s: DecodeRanks = %v, want ErrBadRanks", tc.name, err)
		}
	}
}

// FuzzDecodeRanks: a rank vector read from the input, as raw int64s or as
// small signed steps that fall as a sketch's estimates may, round-trips
// through the reply; the same input read as reply words never panics, and
// what decodes from it re-encodes and decodes to the same ranks.
func FuzzDecodeRanks(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(2))
	f.Add([]byte{0x83, 0x01, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, uint8(1))
	f.Add([]byte{200, 3, 250, 1, 129, 7, 0, 0, 255, 254}, uint8(10))
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		// Raw ranks, 8 bytes each.
		var raw []int64
		for b := data; len(b) >= 8; b = b[8:] {
			raw = append(raw, int64(binary.LittleEndian.Uint64(b)))
		}
		checkRanksRoundTrip(t, "raw", appendRanks(nil, raw), raw)
		// Small signed steps from 0: a byte over 127 is a fall.
		steps := make([]int64, len(data))
		prev := int64(0)
		for i, b := range data {
			prev += int64(int8(b))
			steps[i] = prev
		}
		checkRanksRoundTrip(t, "steps", appendRanks(nil, steps), steps)
		// The input as reply words.
		words := make([]uint64, len(data)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		ranks, err := DecodeRanks(words, int(n))
		if err != nil {
			return
		}
		if len(ranks) != int(n) {
			t.Fatalf("decoded %d ranks for %d bounds", len(ranks), n)
		}
		checkRanksRoundTrip(t, "decoded", appendRanks(nil, ranks), ranks)
	})
}
