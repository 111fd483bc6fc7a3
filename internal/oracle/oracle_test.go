package oracle

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestCountsAndLen(t *testing.T) {
	o := New()
	for _, x := range []uint64{5, 5, 7, 5} {
		o.Add(x)
	}
	if o.Len() != 4 {
		t.Fatalf("Len=%d", o.Len())
	}
	if o.Count(5) != 3 || o.Count(7) != 1 || o.Count(9) != 0 {
		t.Fatalf("counts wrong: %d %d %d", o.Count(5), o.Count(7), o.Count(9))
	}
}

func TestHeavyHitters(t *testing.T) {
	o := New()
	// 10 items: 5 x four times, 7 x three times, 1,2,3 once each.
	for _, x := range []uint64{5, 5, 5, 5, 7, 7, 7, 1, 2, 3} {
		o.Add(x)
	}
	got := o.HeavyHitters(0.3)
	if len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Fatalf("HH(0.3)=%v want [5 7]", got)
	}
	got = o.HeavyHitters(0.35)
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("HH(0.35)=%v want [5]", got)
	}
	if New().HeavyHitters(0.1) != nil {
		t.Fatal("empty oracle should have no heavy hitters")
	}
}

func TestRankAndQuantile(t *testing.T) {
	o := New()
	for x := uint64(0); x < 100; x++ {
		o.Add(x * 10)
	}
	if got := o.Rank(500); got != 50 {
		t.Fatalf("Rank(500)=%d want 50", got)
	}
	if got := o.Rank(505); got != 51 {
		t.Fatalf("Rank(505)=%d want 51", got)
	}
	if got := o.Quantile(0.5); got != 500 {
		t.Fatalf("median=%d want 500", got)
	}
	if got := o.Quantile(0); got != 0 {
		t.Fatalf("Quantile(0)=%d want 0", got)
	}
	if got := o.Quantile(1); got != 990 {
		t.Fatalf("Quantile(1)=%d want 990", got)
	}
}

func TestQuantilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile on empty should panic")
		}
	}()
	New().Quantile(0.5)
}

func TestQuantileRankError(t *testing.T) {
	o := New()
	for x := uint64(1); x <= 100; x++ {
		o.Add(x)
	}
	// Exact median: any x with rank interval containing 50.
	if err := o.QuantileRankError(50, 0.5); err != 0 {
		t.Fatalf("error for x=50 at phi=0.5: %f want 0", err)
	}
	if err := o.QuantileRankError(51, 0.5); err != 0 {
		t.Fatalf("error for x=51 at phi=0.5: %f want 0", err)
	}
	// x=60: rank 59..60, target 50 → error 9/100.
	if err := o.QuantileRankError(60, 0.5); err != 0.09 {
		t.Fatalf("error for x=60: %f want 0.09", err)
	}
	// x=40: rank 39..40, target 50 → error 10/100 (50-40).
	if err := o.QuantileRankError(40, 0.5); err != 0.10 {
		t.Fatalf("error for x=40: %f want 0.10", err)
	}
}

func TestQuantileRankErrorWithDuplicates(t *testing.T) {
	o := New()
	// 1,2,2,2,2,2,2,2,2,3 — the value 2 spans ranks 1..9; median target 5.
	o.Add(1)
	for i := 0; i < 8; i++ {
		o.Add(2)
	}
	o.Add(3)
	if err := o.QuantileRankError(2, 0.5); err != 0 {
		t.Fatalf("value spanning the target should have zero error, got %f", err)
	}
}

// TestAgainstBruteForce checks every query against a sorted copy of the
// arrivals: full 64-bit keys, 0 and math.MaxUint64 among them, half drawn
// from a small pool so they repeat. Reads follow every Add for one stretch,
// so each merge stages a single key, and otherwise follow long runs of adds,
// so a merge interleaves many new keys with the old.
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pool := []uint64{0, math.MaxUint64, 1, math.MaxUint64 - 1}
	for len(pool) < 300 {
		pool = append(pool, rng.Uint64())
	}
	o := New()
	var sorted []uint64
	for i := 0; i < 6000; i++ {
		x := rng.Uint64()
		if i%2 == 0 {
			x = pool[rng.Intn(len(pool))]
		}
		o.Add(x)
		at, _ := slices.BinarySearch(sorted, x)
		sorted = slices.Insert(sorted, at, x)
		if (i >= 1000 && i < 1300) || i%997 == 0 || i == 5999 {
			checkAgainstSorted(t, i, o, sorted, append(pool, rng.Uint64(), x, x+1, x-1))
		}
	}
}

// checkAgainstSorted compares every oracle query with the answer read off
// sorted, the arrivals so far in ascending order, at the given probes.
func checkAgainstSorted(t *testing.T, step int, o *Oracle, sorted, probes []uint64) {
	t.Helper()
	n := int64(len(sorted))
	if o.Len() != n {
		t.Fatalf("step %d: Len=%d want %d", step, o.Len(), n)
	}
	for _, q := range probes {
		lo, _ := slices.BinarySearch(sorted, q)
		hi := lo
		for hi < len(sorted) && sorted[hi] == q {
			hi++
		}
		if got := o.Rank(q); got != int64(lo) {
			t.Fatalf("step %d: Rank(%d)=%d want %d", step, q, got, lo)
		}
		if got := o.Count(q); got != int64(hi-lo) {
			t.Fatalf("step %d: Count(%d)=%d want %d", step, q, got, hi-lo)
		}
		for _, phi := range []float64{0, 0.3, 0.5, 1} {
			target := phi * float64(n)
			want := max(float64(lo)-target, target-float64(hi), 0) / float64(n)
			if got := o.QuantileRankError(q, phi); got != want {
				t.Fatalf("step %d: QuantileRankError(%d, %g)=%g want %g", step, q, phi, got, want)
			}
		}
	}
	for _, phi := range []float64{0, 0.001, 0.1, 0.25, 0.5, 0.9, 0.999, 1} {
		want := sorted[min(int64(phi*float64(n)), n-1)]
		if got := o.Quantile(phi); got != want {
			t.Fatalf("step %d: Quantile(%g)=%d want %d", step, phi, got, want)
		}
	}
	for _, phi := range []float64{0.001, 0.004, 0.01} {
		var want []uint64
		for i := 0; i < len(sorted); {
			j := i
			for j < len(sorted) && sorted[j] == sorted[i] {
				j++
			}
			if float64(j-i) >= phi*float64(n) {
				want = append(want, sorted[i])
			}
			i = j
		}
		if got := o.HeavyHitters(phi); !slices.Equal(got, want) {
			t.Fatalf("step %d: HeavyHitters(%g)=%v want %v", step, phi, got, want)
		}
	}
}

// TestCounterMatchesOracle feeds a Counter and an Oracle the same arrivals,
// repeats included, and compares every rank and range count on the way.
func TestCounterMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	universe := make([]uint64, 300)
	for i := range universe {
		universe[i] = uint64(rng.Intn(1000))
	}
	c, o := NewCounter(universe), New()
	for step := 0; step < 2000; step++ {
		x := universe[rng.Intn(len(universe))]
		c.Add(x)
		o.Add(x)
		lo, hi := uint64(rng.Intn(1100)), uint64(rng.Intn(1100))
		if got, want := c.Rank(lo), o.Rank(lo); got != want {
			t.Fatalf("step %d: Rank(%d) = %d, want %d", step, lo, got, want)
		}
		want := max(0, o.Rank(hi)-o.Rank(lo))
		if got := c.CountRange(lo, hi); got != want {
			t.Fatalf("step %d: CountRange(%d, %d) = %d, want %d", step, lo, hi, got, want)
		}
	}
}
