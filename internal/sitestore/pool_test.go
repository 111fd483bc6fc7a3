package sitestore

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"disttrack/internal/ckpt"
)

// TestExactStoreSteadyStateAllocs pins runPool: once the pool holds a
// buffer of every size class the settles use, a cycle of InsertBatch up to
// pendCap plus one query allocates less than a byte per inserted item. A
// store of 2^16 items in one run settles eight warm-up cycles, which leaves
// a run of 2^15 items and the classes 2^12 to 2^14 in the pool. The next
// seven cycles repeat the same binary-counter merges below that run, so
// none needs a class the pool lacks. Before the pool each of them allocated
// its whole output run.
func TestExactStoreSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers")
	}
	// No collection, so the pool keeps what the warm-up put in it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	base := randomItems(1<<16, 5)
	slices.Sort(base)
	run := getRun(len(base))
	copy(run, base)
	s := &exactStore{runs: [][]uint64{run}, n: len(base)}
	fresh := randomItems(15*pendCap, 6)
	cycle := func(i int) {
		xs := fresh[i*pendCap : (i+1)*pendCap]
		for len(xs) > 0 {
			s.InsertBatch(xs[:512])
			xs = xs[512:]
		}
		s.RankOf(fresh[i])
	}
	for i := range 8 {
		cycle(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 8; i < 15; i++ {
		cycle(i)
	}
	runtime.ReadMemStats(&after)
	items := 7 * pendCap
	if b := after.TotalAlloc - before.TotalAlloc; b >= uint64(items) {
		t.Fatalf("seven steady-state cycles of %d items allocated %d bytes, want under 1 per item", pendCap, b)
	}
	checkShape(t, s)
	if got, want := s.RankOf(math.MaxUint64), int64(len(base)+items+8*pendCap); got != want {
		t.Fatalf("store holds %d items, want %d", got, want)
	}
}

// TestExactStoresShareRunPool drives eight exact stores at once, one per
// goroutine, through random batches, RankOf, Separators, a checkpoint round
// trip and a drain into a fresh store, each checked against a sorted
// reference. The stores share runPool, so a run handed back while a store
// still reads it shows here as a wrong answer, or as a DATA RACE under
// -race (make race repeats it).
func TestExactStoresShareRunPool(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := driveExactStore(int64(g)); err != nil {
				t.Errorf("store %d: %v", g, err)
			}
		}()
	}
	wg.Wait()
}

// driveExactStore runs one store of TestExactStoresShareRunPool and returns
// the first answer that differs from the reference.
func driveExactStore(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	s := NewExact().(*exactStore)
	var ref sortedRef
	sizes := []int{1, 36, radixMin, 512, pendCap - 1, pendCap + 1}
	for op := range 80 {
		switch rng.Intn(6) {
		case 0, 1:
			xs := make([]uint64, sizes[rng.Intn(len(sizes))])
			for i := range xs {
				xs[i] = rng.Uint64() >> uint(rng.Intn(2)*40) // wide or dense
			}
			s.InsertBatch(xs)
			ref = ref.with(xs...)
		case 2:
			x := rng.Uint64() >> uint(rng.Intn(2)*40)
			if got, want := s.RankOf(x), ref.rank(x); got != want {
				return fmt.Errorf("op %d: RankOf(%d) = %d, want %d", op, x, got, want)
			}
		case 3, 5:
			lo, hi := rng.Uint64()>>1, uint64(math.MaxUint64)
			if rng.Intn(2) == 0 {
				lo, hi = 0, rng.Uint64()
			}
			step := int64(1 + rng.Intn(1000))
			if got, want := s.Separators(nil, lo, hi, step), ref.separators(lo, hi, step); !slices.Equal(got, want) {
				return fmt.Errorf("op %d: Separators(%d, %d, %d) differ: %d items, want %d", op, lo, hi, step, len(got), len(want))
			}
		case 4:
			if rng.Intn(2) == 0 {
				var enc, want ckpt.Encoder
				Encode(&enc, s)
				want.U8(storeKindExact)
				want.U64s(ref)
				if !bytes.Equal(enc.Bytes(), want.Bytes()) {
					return fmt.Errorf("op %d: Encode is not kind + the %d sorted items", op, len(ref))
				}
				back, err := Decode(ckpt.NewDecoder(enc.Bytes()))
				if err != nil {
					return fmt.Errorf("op %d: Decode of own encoding: %v", op, err)
				}
				s = back.(*exactStore)
			} else {
				dst := NewExact().(*exactStore)
				Drain(s, dst)
				s = dst
			}
		}
		if len(ref) > 1<<15 { // bound the reference's sorts: start over
			s, ref = NewExact().(*exactStore), nil
		}
	}
	if got := s.RankOf(math.MaxUint64); got != int64(len(ref)) {
		return fmt.Errorf("store holds %d items, want %d", got, len(ref))
	}
	return nil
}
