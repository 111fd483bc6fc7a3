package sitestore

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"disttrack/internal/ckpt"
)

// checkShape asserts the exact store's layout invariants: every run sorted
// and non-empty, run sizes at least halving left to right, pend under its
// cap, the item count consistent, each run's capacity the power of two at
// or above its length (a runPool class), and so at most 2·n + pendCap words
// of capacity in all.
func checkShape(t *testing.T, s *exactStore) {
	t.Helper()
	if len(s.pend) >= pendCap || cap(s.pend) > pendCap {
		t.Fatalf("pend holds %d items in capacity %d, cap is %d", len(s.pend), cap(s.pend), pendCap)
	}
	sum, words := len(s.pend), cap(s.pend)
	for i, run := range s.runs {
		if len(run) == 0 || !slices.IsSorted(run) {
			t.Fatalf("run %d empty or unsorted (len %d)", i, len(run))
		}
		if i > 0 && len(s.runs[i-1]) < 2*len(run) {
			t.Fatalf("run %d has %d items after one of %d: sizes must at least halve", i, len(run), len(s.runs[i-1]))
		}
		if c := cap(run); c != 1<<bits.Len(uint(len(run)-1)) {
			t.Fatalf("run %d has capacity %d for %d items, want the power of two at or above", i, c, len(run))
		}
		sum += len(run)
		words += cap(run)
	}
	if sum != s.n || s.n != s.Space() {
		t.Fatalf("runs and pend hold %d items, n = %d, Space() = %d", sum, s.n, s.Space())
	}
	if words > 2*s.n+pendCap {
		t.Fatalf("store of %d items keeps %d words of capacity, bound 2n + pendCap = %d", s.n, words, 2*s.n+pendCap)
	}
}

// sortedRef is the brute-force reference: one sorted slice. Its rank at
// math.MaxUint64, the universe's inclusive end, is every item, as a
// Store's is.
type sortedRef []uint64

func (r sortedRef) rank(x uint64) int64 {
	if x == math.MaxUint64 {
		return int64(len(r))
	}
	i, _ := slices.BinarySearch(r, x)
	return int64(i)
}

func (r sortedRef) count(lo, hi uint64) int64 {
	if hi <= lo {
		return 0
	}
	return r.rank(hi) - r.rank(lo)
}

func (r sortedRef) separators(lo, hi uint64, step int64) []uint64 {
	var out []uint64
	if hi <= lo {
		return out
	}
	in := r[r.rank(lo):r.rank(hi)]
	for i := step - 1; i < int64(len(in)); i += step {
		out = append(out, in[i])
	}
	return out
}

func (r sortedRef) with(xs ...uint64) sortedRef {
	r = append(r, xs...)
	slices.Sort(r)
	return r
}

// opFeed turns fuzz bytes into operations; an exhausted feed yields zeros.
type opFeed struct{ data []byte }

func (f *opFeed) next() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b
}

// value draws from a dense domain (forcing duplicates), a wide one, or the
// maximum key.
func (f *opFeed) value() uint64 {
	switch b := f.next(); {
	case b < 16:
		return math.MaxUint64
	case b < 144:
		return uint64(b % 32)
	default:
		return uint64(b)<<40 | uint64(f.next())<<16 | uint64(f.next())
	}
}

// batch expands two feed bytes into n values of the same three kinds.
func (f *opFeed) batch(n int) []uint64 {
	dense := f.next()%2 == 0
	rng := rand.New(rand.NewSource(int64(f.next())))
	xs := make([]uint64, n)
	for i := range xs {
		switch z := rng.Uint64(); {
		case z%97 == 0:
			xs[i] = math.MaxUint64
		case dense:
			xs[i] = z % 64
		default:
			xs[i] = z >> 20
		}
	}
	return xs
}

var fuzzBatchSizes = []int{0, 1, 36, radixMin - 1, radixMin, pendCap - 1, pendCap, pendCap + 1}

// FuzzExactStore drives a byte-chosen interleaving of every store operation
// — single and batched inserts, the three queries, a checkpoint round trip
// and a drain — and checks each answer against a sorted slice and the layout
// invariants after every step.
func FuzzExactStore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 5, 0, 9, 1, 3, 1, 4, 4, 0, 0, 0, 5, 6, 1, 2, 3, 4, 200, 1, 2})
	f.Add([]byte{1, 5, 1, 1, 1, 5, 1, 2, 1, 4, 0, 3, 4, 3, 20, 220, 0, 0, 1, 2, 17, 1, 1, 9, 4, 0, 0, 0, 1, 6, 5})
	f.Add(bytes.Repeat([]byte{0, 150, 7, 7, 1, 3, 0, 8}, 80))
	// Four runs (batches of 4,096, 128, 36 and 1 items, each settled by the
	// check after it), then Separators over the whole store and over [5, 20),
	// about a quarter of it: a range of at least half the store and a smaller
	// one. Wide values first, then dense ones with many duplicates across the
	// runs.
	f.Add([]byte{1, 6, 1, 5, 1, 4, 1, 6, 1, 2, 1, 7, 1, 1, 1, 8, 4, 0, 0, 0, 1, 4, 0, 0, 0, 0})
	f.Add([]byte{1, 6, 0, 3, 1, 4, 2, 4, 1, 2, 4, 5, 1, 1, 6, 9,
		4, 0, 0, 0, 1, 4, 37, 52, 1, 1, 4, 37, 52, 1, 0, 4, 0, 0, 0, 2})
	// Three inserts settled by a RankOf into a run of three items, whose
	// capacity checkShape sees on the insert after it.
	f.Add([]byte{0, 20, 0, 21, 0, 22, 2, 30, 0, 23})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every step costs O(items held); a bounded script keeps one
		// execution in the milliseconds.
		feed := &opFeed{data: data[:min(len(data), 256)]}
		s := NewExact().(*exactStore)
		var ref sortedRef
		for len(feed.data) > 0 {
			switch feed.next() % 7 {
			case 0:
				x := feed.value()
				s.Insert(x)
				ref = ref.with(x)
			case 1:
				xs := feed.batch(fuzzBatchSizes[int(feed.next())%len(fuzzBatchSizes)])
				before := slices.Clone(xs)
				s.InsertBatch(xs)
				if !slices.Equal(xs, before) {
					t.Fatal("InsertBatch modified its argument")
				}
				ref = ref.with(xs...)
			case 2:
				x := feed.value()
				if got, want := s.RankOf(x), ref.rank(x); got != want {
					t.Fatalf("RankOf(%d) = %d, want %d", x, got, want)
				}
			case 3:
				lo, hi := feed.value(), feed.value()
				if got, want := s.CountRange(lo, hi), ref.count(lo, hi); got != want {
					t.Fatalf("CountRange(%d, %d) = %d, want %d", lo, hi, got, want)
				}
			case 4:
				lo, hi := feed.value(), feed.value()
				if feed.next()%2 == 0 {
					lo, hi = 0, math.MaxUint64
				}
				step := []int64{1, 7, int64(len(ref)) + 1}[int(feed.next())%3]
				got, want := s.Separators(nil, lo, hi, step), ref.separators(lo, hi, step)
				if !slices.Equal(got, want) {
					t.Fatalf("Separators(%d, %d, %d) = %v, want %v", lo, hi, step, got, want)
				}
			case 5:
				var enc ckpt.Encoder
				Encode(&enc, s)
				var want ckpt.Encoder
				want.U8(storeKindExact)
				want.U64s(ref)
				if !bytes.Equal(enc.Bytes(), want.Bytes()) {
					t.Fatalf("Encode wrote %d bytes that are not kind + the %d sorted items", enc.Len(), len(ref))
				}
				back, err := Decode(ckpt.NewDecoder(enc.Bytes()))
				if err != nil {
					t.Fatalf("Decode of own encoding: %v", err)
				}
				s = back.(*exactStore)
			case 6:
				dst := NewExact().(*exactStore)
				pre := feed.batch(int(feed.next()) % 40)
				dst.InsertBatch(pre)
				Drain(s, dst)
				s, ref = dst, ref.with(pre...)
			}
			checkShape(t, s)
			if got := s.RankOf(math.MaxUint64); got != ref.rank(math.MaxUint64) {
				t.Fatalf("RankOf(max) = %d, want %d", got, ref.rank(math.MaxUint64))
			}
		}
	})
}

// TestExactEncodeGolden pins the exact store's checkpoint bytes (written at
// the commit before the store became sorted runs), in both directions:
// Encode still produces them, and Decode still restores them.
func TestExactEncodeGolden(t *testing.T) {
	golden, err := hex.DecodeString("000b000000" +
		"0000000000000000" + "0300000000000000" + "0300000000000000" + "0300000000000000" +
		"0500000000000000" + "0900000000000000" + "2a00000000000000" + "4d00000000000000" +
		"0000000000010000" + "0100000000010000" + "ffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	s := NewExact()
	for _, x := range []uint64{9, 3, math.MaxUint64, 3, 0, 1 << 40, 77} {
		s.Insert(x)
	}
	s.InsertBatch([]uint64{5, 1<<40 | 1, 3, 42})
	var enc ckpt.Encoder
	Encode(&enc, s)
	if !bytes.Equal(enc.Bytes(), golden) {
		t.Fatalf("Encode = %x\nwant     %x", enc.Bytes(), golden)
	}
	var empty ckpt.Encoder
	Encode(&empty, NewExact())
	if !bytes.Equal(empty.Bytes(), []byte{0, 0, 0, 0, 0}) {
		t.Fatalf("empty store encodes as %x", empty.Bytes())
	}

	back, err := Decode(ckpt.NewDecoder(golden))
	if err != nil {
		t.Fatal(err)
	}
	if back.Space() != 11 || back.RankOf(4) != 4 || back.CountRange(5, 1<<40) != 4 {
		t.Fatalf("restored store answers Space %d, RankOf(4) %d, CountRange(5, 2^40) %d; want 11, 4, 4",
			back.Space(), back.RankOf(4), back.CountRange(5, 1<<40))
	}
	if got, want := back.Separators(nil, 0, math.MaxUint64, 3), []uint64{3, 9, 1 << 40}; !slices.Equal(got, want) {
		t.Fatalf("restored store Separators = %v, want %v", got, want)
	}
}

// TestSortInto checks sortInto against slices.Sort on the inputs its digit
// skipping and its cutover to a comparison sort must get right, at lengths
// on both sides of radixMin.
func TestSortInto(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gen := map[string]func(i int) uint64{
		"all equal":         func(int) uint64 { return 0xdeadbeef },
		"all max":           func(int) uint64 { return math.MaxUint64 },
		"one byte differs":  func(int) uint64 { return 0x1122334455667788 ^ uint64(rng.Intn(256))<<24 },
		"top byte only":     func(int) uint64 { return uint64(rng.Intn(256)) << 56 },
		"top and low bytes": func(int) uint64 { return uint64(rng.Intn(256))<<56 | uint64(rng.Intn(3)) },
		"with max":          func(i int) uint64 { return []uint64{math.MaxUint64, rng.Uint64()}[i%2] },
		"perturbed":         func(i int) uint64 { return uint64(rng.Intn(1<<20))<<24 | uint64(i%5) },
		"descending":        func(i int) uint64 { return uint64(1<<40 - i) },
		"random":            func(int) uint64 { return rng.Uint64() },
	}
	for name, next := range gen {
		for _, n := range []int{0, 1, 2, radixMin - 1, radixMin, radixMin + 1, 1000, pendCap} {
			a := make([]uint64, n)
			for i := range a {
				a[i] = next(i)
			}
			want := slices.Clone(a)
			slices.Sort(want)
			got := make([]uint64, n)
			if sortInto(got, a); !slices.Equal(got, want) {
				t.Fatalf("%s, %d keys: sortInto differs from slices.Sort", name, n)
			}
		}
	}
}

// BenchmarkExactStoreInsertBatch is the trackers' batched ingest as the store
// sees it, into a store holding between one and two million items (it is
// reset to the first million, off the clock, whenever it reaches two). One
// op is one settle of pend. batch512 feeds eight 512-item batches with no
// query, so pend settles on reaching its cap. settled feeds 42 batches of 36
// items and then a RankOf: the run length and query cadence of
// quantile_stream's sites.
func BenchmarkExactStoreInsertBatch(b *testing.B) {
	base := randomItems(1<<20, 1)
	slices.Sort(base)
	// The batches are cut from a million fresh items, so merges interleave
	// runs as distinct random keys do.
	fresh := randomItems(1<<20, 2)
	bench := func(b *testing.B, batch, batches int, query bool) {
		var s *exactStore
		at := 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if s == nil || s.n >= 2*len(base) {
				b.StopTimer()
				// The settles hand the runs back to runPool, so the store
				// starts from a copy of base, never base itself. The old
				// store's runs go back too, as its settles' would have: the
				// clock measures settles into a warm pool.
				if s != nil {
					for _, run := range s.runs {
						putRun(run)
					}
				}
				run := getRun(len(base))
				copy(run, base)
				s = &exactStore{runs: [][]uint64{run}, n: len(base)}
				b.StartTimer()
			}
			for range batches {
				if at+batch > len(fresh) {
					at = 0
				}
				s.InsertBatch(fresh[at : at+batch])
				at += batch
			}
			if query {
				s.RankOf(fresh[at])
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch*batches), "ns/item")
	}
	b.Run("batch512", func(b *testing.B) { bench(b, 512, pendCap/512, false) })
	b.Run("settled", func(b *testing.B) { bench(b, 36, 42, true) })
}

// BenchmarkExactStoreSeparators is a round rebuild's and a leaf split's read
// of one site: a million random items in eight runs of halving sizes, cut
// every 1,024 items over the whole store (all) and over a sixteenth of its
// key range (sixteenth). One op is one Separators call on a fresh store
// header over the same runs, so no call sees another's reorganisation.
func BenchmarkExactStoreSeparators(b *testing.B) {
	items := randomItems(1<<20, 3)
	var runs [][]uint64
	for size := 1 << 19; len(runs) < 8; size /= 2 {
		run := slices.Clone(items[:size])
		slices.Sort(run)
		runs, items = append(runs, run), items[size:]
	}
	n := 0
	for _, run := range runs {
		n += len(run)
	}
	bench := func(b *testing.B, lo, hi uint64) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := &exactStore{runs: slices.Clone(runs), n: n}
			s.Separators(nil, lo, hi, 1<<10)
		}
	}
	b.Run("all", func(b *testing.B) { bench(b, 0, math.MaxUint64) })
	b.Run("sixteenth", func(b *testing.B) { bench(b, 1<<36, 2<<36) })
}
