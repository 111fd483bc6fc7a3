package sitestore

import (
	"math"
	"slices"
	"strings"
	"testing"

	"disttrack/internal/ckpt"
)

// TestBootList checks the bootstrap list against a sorted copy of what was
// added: ranks, the φ-select with its empty cases (0 while the arrivals
// counted are in flight, a panic before any), the checkpoint round trip, the
// refusal of keys out of order, and the drop.
func TestBootList(t *testing.T) {
	var b BootList
	if got := b.Select(0.5, 3); got != 0 {
		t.Fatalf("Select with every arrival in flight = %d, want 0", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Select before any arrival did not panic")
			}
		}()
		b.Select(0.5, 0)
	}()
	xs := randomItems(1000, 7)
	xs = append(xs, xs[:50]...) // repeated keys, as an unperturbed stream sends
	for _, x := range xs {
		b.Add(x)
	}
	want := slices.Sorted(slices.Values(xs))
	if !slices.Equal(b.Keys(), want) {
		t.Fatal("Keys are not the sorted arrivals")
	}
	for _, q := range []uint64{0, want[0], want[17], want[17] + 1, want[len(want)-1], math.MaxUint64} {
		if got, w := b.RankOf(q), trueRank(want, q); got != w {
			t.Fatalf("RankOf(%d) = %d, want %d", q, got, w)
		}
	}
	for _, phi := range []float64{0, 0.25, 0.5, 0.999, 1} {
		i := min(int(phi*float64(len(want))), len(want)-1)
		if got := b.Select(phi, int64(len(want))); got != want[i] {
			t.Fatalf("Select(%g) = %d, want %d", phi, got, want[i])
		}
	}
	b.Add(1) // unsorted again: the next read sorts it
	want = slices.Insert(want, 0, 1)

	var enc ckpt.Encoder
	b.Encode(&enc)
	var back BootList
	if err := back.Decode(ckpt.NewDecoder(enc.Bytes())); err != nil || !slices.Equal(back.Keys(), want) {
		t.Fatalf("round trip: %v, %d keys", err, len(back.Keys()))
	}
	enc.Reset()
	enc.U64s([]uint64{1, 3, 2})
	if err := back.Decode(ckpt.NewDecoder(enc.Bytes())); err == nil || !strings.Contains(err.Error(), "out of order at 2") {
		t.Fatalf("keys out of order: %v", err)
	}
	b.Drop()
	if len(b.Keys()) != 0 || b.RankOf(math.MaxUint64) != 0 {
		t.Fatal("a dropped list holds keys")
	}
}

// TestRankReplyCounts: the counts AddCounts takes from a rank reply over a
// universe's inner bounds and its end are CountRange's values, for the exact
// store and the GK store, and a rank that falls, as a sketch's estimate may,
// counts zero, as CountRange clamps it.
func TestRankReplyCounts(t *testing.T) {
	xs := randomItems(20000, 11)
	bounds := append(randomItems(300, 12), xs[5], xs[6], math.MaxUint64)
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)
	for name, st := range map[string]Store{"exact": NewExact(), "gk": NewGK(0.01)} {
		fill(st, xs)
		counts := make([]int64, len(bounds))
		ranks, err := DecodeRanks(EncodeRanks(nil, st, bounds), len(bounds))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		AddCounts(counts, ranks)
		prev := uint64(0)
		for i, b := range bounds {
			if want := st.CountRange(prev, b); counts[i] != want {
				t.Fatalf("%s: interval %d counts %d from ranks, %d from CountRange", name, i, counts[i], want)
			}
			prev = b
		}
	}
	counts := make([]int64, 3)
	AddCounts(counts, []int64{5, 4, 9})
	if !slices.Equal(counts, []int64{5, 0, 5}) {
		t.Fatalf("ranks 5, 4, 9 count %v, want [5 0 5]", counts)
	}
}
