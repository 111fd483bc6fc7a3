package sitestore

import (
	"math"
	"math/rand"
	"testing"
)

func fill(s Store, xs []uint64) {
	for _, x := range xs {
		s.Insert(x)
	}
}

func randomItems(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = rng.Uint64() % (1 << 40)
	}
	return xs
}

func trueRank(xs []uint64, q uint64) int64 {
	var r int64
	for _, x := range xs {
		if x < q {
			r++
		}
	}
	return r
}

func TestExactStoreAnswers(t *testing.T) {
	xs := randomItems(5000, 1)
	s := NewExact()
	fill(s, xs)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		q := rng.Uint64() % (1 << 40)
		if got, want := s.RankOf(q), trueRank(xs, q); got != want {
			t.Fatalf("RankOf(%d)=%d want %d", q, got, want)
		}
	}
	if s.Space() != 5000 {
		t.Fatalf("Space=%d", s.Space())
	}
}

func TestGKStoreRankWithinEps(t *testing.T) {
	const eps = 0.01
	xs := randomItems(20000, 3)
	s := NewGK(eps)
	fill(s, xs)
	bound := eps*float64(len(xs)) + 1
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		q := rng.Uint64() % (1 << 40)
		got, want := s.RankOf(q), trueRank(xs, q)
		if math.Abs(float64(got-want)) > bound {
			t.Fatalf("RankOf(%d)=%d want %d±%f", q, got, want, bound)
		}
	}
	if s.Space() >= len(xs)/2 {
		t.Fatalf("GK store space %d not sublinear", s.Space())
	}
}

// TestInsertBatchMatchesSequential checks that batched and sequential
// insertion answer identically — exactly for the exact store, and
// tuple-for-tuple for the order-sensitive GK summary (same arrival order).
func TestInsertBatchMatchesSequential(t *testing.T) {
	xs := randomItems(12000, 21)
	for name, mk := range map[string]func() Store{
		"exact": func() Store { return NewExact() },
		"gk":    func() Store { return NewGK(0.01) },
	} {
		seq, bat := mk(), mk()
		fill(seq, xs)
		rng := rand.New(rand.NewSource(22))
		for pos := 0; pos < len(xs); {
			n := 1 + rng.Intn(500)
			if pos+n > len(xs) {
				n = len(xs) - pos
			}
			bat.InsertBatch(xs[pos : pos+n])
			pos += n
		}
		bat.InsertBatch(nil) // no-op
		if seq.Space() == 0 || bat.RankOf(math.MaxUint64) != int64(len(xs)) {
			t.Fatalf("%s: batched store lost items", name)
		}
		qrng := rand.New(rand.NewSource(23))
		for i := 0; i < 200; i++ {
			q := qrng.Uint64() % (1 << 40)
			if a, b := seq.RankOf(q), bat.RankOf(q); a != b {
				t.Fatalf("%s: RankOf(%d) sequential %d, batched %d", name, q, a, b)
			}
		}
		sa := seq.Separators(nil, 0, math.MaxUint64, 100)
		sb := bat.Separators(nil, 0, math.MaxUint64, 100)
		if len(sa) != len(sb) {
			t.Fatalf("%s: separator counts diverged: %d vs %d", name, len(sa), len(sb))
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("%s: separator %d diverged: %d vs %d", name, i, sa[i], sb[i])
			}
		}
	}
}

func TestCountRangeConsistent(t *testing.T) {
	xs := randomItems(3000, 5)
	for name, s := range map[string]Store{"exact": NewExact(), "gk": NewGK(0.02)} {
		fill(s, xs)
		lo, hi := uint64(1)<<36, uint64(1)<<38
		want := trueRank(xs, hi) - trueRank(xs, lo)
		got := s.CountRange(lo, hi)
		slack := int64(0)
		if name == "gk" {
			slack = int64(0.04*float64(len(xs))) + 2
		}
		if got < want-slack || got > want+slack {
			t.Fatalf("%s: CountRange=%d want %d±%d", name, got, want, slack)
		}
		if s.CountRange(hi, lo) != 0 {
			t.Fatalf("%s: inverted range should be 0", name)
		}
	}
}

func TestSeparatorsStayInsideInterval(t *testing.T) {
	xs := randomItems(10000, 9)
	for name, s := range map[string]Store{"exact": NewExact(), "gk": NewGK(0.01)} {
		fill(s, xs)
		lo, hi := uint64(1)<<37, uint64(1)<<39
		seps := s.Separators(nil, lo, hi, 50)
		for _, v := range seps {
			if v < lo || v >= hi {
				t.Fatalf("%s: separator %d outside [%d,%d)", name, v, lo, hi)
			}
		}
		if len(seps) == 0 {
			t.Fatalf("%s: no separators over a populated interval", name)
		}
	}
}

func TestSeparatorsRankAccuracy(t *testing.T) {
	// Cumulative separator weights must estimate interval-local ranks within
	// step (+ sketch error for GK).
	xs := randomItems(10000, 11)
	const step = 100
	for name, s := range map[string]Store{"exact": NewExact(), "gk": NewGK(0.005)} {
		fill(s, xs)
		seps := s.Separators(nil, 0, math.MaxUint64, step)
		slack := float64(step)
		if name == "gk" {
			slack += 2 * 0.005 * float64(len(xs))
		}
		for i, v := range seps {
			want := int64((i + 1) * step)
			got := trueRank(xs, v) // rank of the closing item of chunk i
			if math.Abs(float64(got-want)) > slack+1 {
				t.Fatalf("%s: separator %d has true rank %d, want ~%d (slack %f)",
					name, i, got, want, slack)
			}
		}
	}
}
