package hh

import (
	"testing"

	"disttrack/internal/oracle"
	"disttrack/internal/stream"
)

func TestThresholdDivisorValidation(t *testing.T) {
	if _, err := New(Config{K: 2, Eps: 0.1, ThresholdDivisor: -1}); err == nil {
		t.Fatal("negative divisor should error")
	}
	if _, err := New(Config{K: 2, Eps: 0.1, ThresholdDivisor: 6}); err != nil {
		t.Fatalf("divisor 6 should be accepted: %v", err)
	}
}

func TestLargerDivisorCostsMoreStaysCorrect(t *testing.T) {
	run := func(div float64) int64 {
		tr, err := New(Config{K: 8, Eps: 0.05, ThresholdDivisor: div})
		if err != nil {
			t.Fatal(err)
		}
		o := oracle.New()
		g := stream.Zipf(10000, 40000, 1.4, 65)
		for i := 0; ; i++ {
			x, ok := g.Next()
			if !ok {
				break
			}
			tr.Feed(i%8, x)
			o.Add(x)
			if i%997 == 0 && i > 100 {
				checkContract(t, tr, o, 0.1, i)
			}
		}
		return tr.Meter().Total().Words
	}
	w3, w12 := run(3), run(12)
	if w12 <= w3 {
		t.Fatalf("divisor 12 (%d words) should cost more than divisor 3 (%d words)", w12, w3)
	}
}

func TestInvariantsTightenWithDivisor(t *testing.T) {
	// With divisor 6 the staleness bound halves: C.m must lag by < εm/6.
	const k, eps = 8, 0.06
	tr, _ := New(Config{K: k, Eps: eps, ThresholdDivisor: 6})
	g := stream.Uniform(10000, 40000, 67)
	var n int64
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%k, x)
		n++
		if cm := tr.EstTotal(); float64(n-cm) >= eps*float64(n)/6 {
			t.Fatalf("step %d: C.m=%d lags %d beyond εm/6", i, cm, n)
		}
	}
}
