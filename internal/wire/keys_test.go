package wire

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// keyCases are key lists of every shape the codec tells apart: none, one,
// repeats, both ends of the universe, small gaps, and gaps of 2^56 and more
// that make the raw words shorter.
var keyCases = [][]uint64{
	nil,
	{0},
	{math.MaxUint64},
	{5, 5},
	{0, math.MaxUint64},
	{7, 7, 7, 7, 7, 7, 7, 7, 7},
	{0, 1, 2, 3, 4, 5, 6, 7, 8},
	{1 << 40, 1<<40 + 3, 1<<40 + 300, 1<<40 + 70000, 1<<41 + 9},
	{0, 1 << 56, 2 << 56, 3 << 56},
	{0, 1 << 56, 1<<56 + 1, 1<<56 + 2, 1<<56 + 3, 1<<56 + 4, 1<<56 + 5, 1<<56 + 6},
	{1, 1 << 62, math.MaxUint64 - 1, math.MaxUint64},
}

// keyWords returns the words AppendKeys should write for keys by its rule:
// nothing for none, the raw key for one, else the first key and the header
// and gaps packed eight bytes a word when that is fewer words than the
// header word and the raw keys.
func keyWords(keys []uint64) int {
	n := len(keys)
	if n < 2 {
		return n
	}
	stream := binary.AppendUvarint(nil, uint64(n-1)<<1)
	for i := 1; i < n; i++ {
		stream = binary.AppendUvarint(stream, keys[i]-keys[i-1])
	}
	return 1 + min((len(stream)+7)/8, n)
}

// TestAppendKeys round-trips keyCases and random sorted lists, appended after
// other words, at the length the rule names and never over n + 1 words.
func TestAppendKeys(t *testing.T) {
	cases := slices.Clone(keyCases)
	x := uint64(0x9e3779b97f4a7c15)
	for _, n := range []int{2, 3, 64, 65, 1000} {
		for _, spread := range []uint{3, 20, 58, 63} {
			keys := make([]uint64, n)
			for i := range keys {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				keys[i] = x >> (64 - spread)
			}
			slices.Sort(keys)
			cases = append(cases, keys)
		}
	}
	for _, keys := range cases {
		words := AppendKeys([]uint64{7}, keys)
		if words[0] != 7 || len(words)-1 != keyWords(keys) || len(words)-1 > len(keys)+1 {
			t.Fatalf("%d keys %v…: %d words after the 7, want %d", len(keys), keys[:min(len(keys), 4)], len(words)-1, keyWords(keys))
		}
		got, err := ReadKeys(words[1:])
		if err != nil || !slices.Equal(got, keys) {
			t.Fatalf("%d keys: ReadKeys(AppendKeys) = %d keys, %v", len(keys), len(got), err)
		}
	}
	// Nine keys one apart: the header and eight gaps are nine bytes, two
	// words, against the raw form's nine.
	if words := AppendKeys(nil, keyCases[6]); len(words) != 3 || words[1] != 8<<1|1<<8|1<<16|1<<24|1<<32|1<<40|1<<48|1<<56 || words[2] != 1 {
		t.Fatalf("nine keys one apart: %#x", words)
	}
	// Gaps of 2^56 take nine bytes each: the raw form.
	if words := AppendKeys(nil, keyCases[8]); len(words) != 5 || words[1] != 3<<1|keysRaw {
		t.Fatalf("gaps of 2^56: %#x, want the raw form", words)
	}
}

// TestAppendKeysPanicsUnsorted: keys out of order are a caller's bug.
func TestAppendKeysPanicsUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AppendKeys took unsorted keys")
		}
	}()
	AppendKeys(nil, []uint64{2, 1})
}

// TestReadKeysRefuses: a header count the words cannot hold, a count of
// one behind a header, a padded varint, nonzero padding, a spare word, raw
// keys out of order or that the gaps would send shorter, a gap list the raw
// form would send no longer, and gaps past 2^64 − 1 are refused.
func TestReadKeysRefuses(t *testing.T) {
	for _, tc := range []struct {
		name  string
		words []uint64
	}{
		{"count past the bytes", []uint64{1, 9 << 1}},
		{"raw count past the words", []uint64{1, 2<<1 | keysRaw, 5}},
		{"header of one key", []uint64{1, 0<<1 | 0}},
		{"raw header of one key", []uint64{1, 0<<1 | keysRaw, 2}},
		{"padded header", []uint64{1, 0x80 | (1<<1)<<0 | 0x00<<8, 0}},
		{"padded gap", []uint64{1, 1<<1 | 0x81<<8 | 0x00<<16}},
		{"nonzero padding", []uint64{1, 1<<1 | 3<<8 | 1<<40}},
		{"spare word", []uint64{1, 1<<1 | 3<<8, 0}},
		{"raw padding", []uint64{1, 1<<1 | keysRaw | 1<<16, 1 << 60}},
		{"raw out of order", []uint64{1 << 60, 1<<1 | keysRaw, 1}},
		{"raw that gaps send shorter", []uint64{1, 1<<1 | keysRaw, 2}},
		{"gaps that raw sends no longer", []uint64{0, 1<<1 | 0x80<<8 | 0x80<<16 | 0x80<<24 | 0x80<<32 | 0x80<<40 | 0x80<<48 | 0x80<<56, 0x01}},
		{"sum past 2^64 − 1", []uint64{math.MaxUint64, 1<<1 | 1<<8}},
		{"ten-byte overflow", []uint64{0, 1<<1 | 0xff<<8 | 0xff<<16 | 0xff<<24 | 0xff<<32 | 0xff<<40 | 0xff<<48 | 0xff<<56, 0xff | 0xff<<8 | 0x02<<16}},
	} {
		if keys, err := ReadKeys(tc.words); err == nil {
			t.Errorf("%s: ReadKeys(%#x) = %v, want an error", tc.name, tc.words, keys)
		}
	}
}

// FuzzDecodeKeys: key lists from the input bytes, eight to a key and
// sorted, round-trip within n + 1 words at the length the rule names; the
// input read as a message's words never panics ReadKeys, and whatever it
// decodes re-encodes to the same words.
func FuzzDecodeKeys(f *testing.F) {
	for _, keys := range keyCases {
		b := []byte{}
		for _, w := range AppendKeys(nil, keys) {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		f.Add(b)
	}
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x02, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		words := make([]uint64, len(data)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		keys := slices.Sorted(slices.Values(words))
		enc := AppendKeys(nil, keys)
		if len(enc) != keyWords(keys) || len(enc) > len(keys)+1 {
			t.Fatalf("%d keys encode to %d words, want %d", len(keys), len(enc), keyWords(keys))
		}
		if got, err := ReadKeys(enc); err != nil || !slices.Equal(got, keys) {
			t.Fatalf("%d keys: ReadKeys(AppendKeys) = %d keys, %v", len(keys), len(got), err)
		}
		got, err := ReadKeys(words)
		if err != nil {
			return
		}
		if again := AppendKeys(nil, got); !slices.Equal(again, words) {
			t.Fatalf("%#x decodes to %d keys that re-encode to %#x", words, len(got), again)
		}
	})
}
