package baseline

import (
	"testing"

	"disttrack/internal/oracle"
	"disttrack/internal/stream"
)

// checkHH asserts the ε-approximate heavy-hitter contract.
func checkHH(t *testing.T, name string, got []uint64, o *oracle.Oracle, phi, eps float64, step int) {
	t.Helper()
	reported := map[uint64]bool{}
	for _, x := range got {
		reported[x] = true
		if float64(o.Count(x)) < (phi-eps)*float64(o.Len()) {
			t.Fatalf("%s step %d: false positive %d (freq %d of %d)",
				name, step, x, o.Count(x), o.Len())
		}
	}
	for _, x := range o.HeavyHitters(phi) {
		if !reported[x] {
			t.Fatalf("%s step %d: missed heavy hitter %d (freq %d of %d)",
				name, step, x, o.Count(x), o.Len())
		}
	}
}

func TestNaiveIsExact(t *testing.T) {
	tr := NewNaive()
	o := oracle.New()
	g := stream.Zipf(1000, 20000, 1.3, 1)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%4, x)
		o.Add(x)
	}
	hh := tr.HeavyHitters(0.05)
	want := o.HeavyHitters(0.05)
	if len(hh) != len(want) {
		t.Fatalf("naive HH %v != exact %v", hh, want)
	}
	for i := range hh {
		if hh[i] != want[i] {
			t.Fatalf("naive HH %v != exact %v", hh, want)
		}
	}
	if q, w := tr.Quantile(0.5), o.Quantile(0.5); q != w {
		t.Fatalf("naive median %d != exact %d", q, w)
	}
	// Cost is exactly n messages of 1 word.
	if c := tr.Meter().Total(); c.Msgs != 20000 || c.Words != 20000 {
		t.Fatalf("naive cost %+v, want exactly n", c)
	}
}

func runBaselineHH(t *testing.T, name string, tr Tracker, phi, eps float64) {
	t.Helper()
	o := oracle.New()
	g := stream.Zipf(5000, 40000, 1.4, 7)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%8, x)
		o.Add(x)
		if i%199 == 0 && i > 100 {
			checkHH(t, name, tr.HeavyHitters(phi), o, phi, eps, i)
		}
	}
	checkHH(t, name, tr.HeavyHitters(phi), o, phi, eps, -1)
}

func TestPushHeavyHitterContract(t *testing.T) {
	tr, err := NewPush(8, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	runBaselineHH(t, "push", tr, 0.1, 0.05)
}

func TestPollHeavyHitterContract(t *testing.T) {
	tr, err := NewPoll(8, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	runBaselineHH(t, "poll", tr, 0.1, 0.05)
}

func runBaselineQuantile(t *testing.T, name string, tr Tracker, eps float64) {
	t.Helper()
	o := oracle.New()
	g := stream.Perturb(stream.Uniform(1<<30, 40000, 9))
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%8, x)
		o.Add(x)
		if i%499 == 0 && i > 500 {
			for _, phi := range []float64{0.1, 0.5, 0.9} {
				v := tr.Quantile(phi)
				if e := o.QuantileRankError(v, phi); e > eps {
					t.Fatalf("%s step %d phi=%g: rank error %.4f > eps", name, i, phi, e)
				}
			}
		}
	}
}

func TestPushQuantileContract(t *testing.T) {
	tr, _ := NewPush(8, 0.05)
	runBaselineQuantile(t, "push", tr, 0.05)
}

func TestPollQuantileContract(t *testing.T) {
	tr, _ := NewPoll(8, 0.05)
	runBaselineQuantile(t, "poll", tr, 0.05)
}

func TestPushCostQuadraticInEps(t *testing.T) {
	// Halving eps should roughly quadruple words (1/ε sketch size × 1/ε
	// shipping frequency) — the Θ(1/ε) gap to Theorem 2.1 the paper closes.
	run := func(eps float64) int64 {
		tr, _ := NewPush(4, eps)
		g := stream.Zipf(100000, 1<<17, 1.3, 11)
		for i := 0; ; i++ {
			x, ok := g.Next()
			if !ok {
				break
			}
			tr.Feed(i%4, x)
		}
		return tr.Meter().Total().Words
	}
	w1 := run(0.08)
	w2 := run(0.04)
	r := float64(w2) / float64(w1)
	if r < 2.5 || r > 6.5 {
		t.Fatalf("halving eps: words %d → %d (ratio %.2f), want ~4x", w1, w2, r)
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewPush(0, 0.1); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := NewPoll(2, 0); err == nil {
		t.Fatal("eps=0 should error")
	}
	tr, _ := NewPush(2, 0.1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad site should panic")
			}
		}()
		tr.Feed(7, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Quantile before shipment should panic")
			}
		}()
		NewNaive().Quantile(0.5)
	}()
}

func TestPollCheapCounterKeepsPollsLogarithmic(t *testing.T) {
	tr, _ := NewPoll(4, 0.1)
	g := stream.Uniform(1000, 1<<16, 13)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%4, x)
	}
	polls := tr.Meter().Kind("poll").Msgs / 4
	// log_{1.05}(2^16) ≈ 230.
	if polls < 20 || polls > 600 {
		t.Fatalf("polls=%d, want Θ(log n / ε)≈230", polls)
	}
}
