package quantile

import (
	"testing"

	"disttrack/internal/oracle"
	"disttrack/internal/stream"
)

func TestMultiQuantileContractAtAllTimes(t *testing.T) {
	phis := []float64{0.05, 0.25, 0.5, 0.75, 0.95}
	cfg := Config{K: 8, Eps: 0.05, Phis: phis}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.New()
	g := distinctUniform(40000, 51)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%8, x)
		o.Add(x)
		if i%149 != 0 && i >= 30 {
			continue
		}
		for qi, phi := range phis {
			v := tr.QuantileAt(qi)
			if e := o.QuantileRankError(v, phi); e > cfg.Eps {
				t.Fatalf("step %d phi=%g: rank error %.5f > eps", i, phi, e)
			}
		}
	}
	qs := tr.Quantiles()
	if len(qs) != len(phis) {
		t.Fatalf("Quantiles() returned %d values for %d phis", len(qs), len(phis))
	}
	// Tracked quantiles must be monotone in phi.
	for i := 1; i < len(qs); i++ {
		if qs[i] < qs[i-1] {
			t.Fatalf("quantiles not monotone: %v", qs)
		}
	}
}

func TestMultiQuantileSharesIntervalMachinery(t *testing.T) {
	phis := []float64{0.1, 0.5, 0.9}
	run := func(cfg Config) int64 {
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := distinctUniform(60000, 53)
		for i := 0; ; i++ {
			x, ok := g.Next()
			if !ok {
				break
			}
			tr.Feed(i%8, x)
		}
		return tr.Meter().Total().Words
	}
	multi := run(Config{K: 8, Eps: 0.05, Phis: phis})
	var separate int64
	for _, phi := range phis {
		separate += run(Config{K: 8, Eps: 0.05, Phi: phi})
	}
	// Sharing separators, splits and total counting must beat three
	// independent trackers.
	if multi >= separate {
		t.Fatalf("multi-quantile tracker (%d words) should undercut %d separate trackers (%d words)",
			multi, len(phis), separate)
	}
	t.Logf("multi=%d words, %d separate trackers=%d words (%.0f%% saved)",
		multi, len(phis), separate, 100*(1-float64(multi)/float64(separate)))
}

func TestQuantileOf(t *testing.T) {
	tr, _ := New(Config{K: 2, Eps: 0.1, Phis: []float64{0.25, 0.75}})
	g := distinctUniform(5000, 55)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%2, x)
	}
	if tr.QuantileOf(0.25) != tr.QuantileAt(0) {
		t.Fatal("QuantileOf(0.25) disagrees with QuantileAt(0)")
	}
	if tr.QuantileOf(0.75) != tr.QuantileAt(1) {
		t.Fatal("QuantileOf(0.75) disagrees with QuantileAt(1)")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("QuantileOf of an untracked phi should panic")
		}
	}()
	tr.QuantileOf(0.5)
}

func TestMultiQuantileValidation(t *testing.T) {
	if _, err := New(Config{K: 2, Eps: 0.1, Phis: []float64{0.5, 1.5}}); err == nil {
		t.Fatal("out-of-range phi in Phis should error")
	}
}

func TestPhisAccessorIsCopy(t *testing.T) {
	tr, _ := New(Config{K: 2, Eps: 0.1, Phis: []float64{0.2, 0.8}})
	ps := tr.Phis()
	ps[0] = 0.99
	if tr.Phis()[0] != 0.2 {
		t.Fatal("Phis() must return a copy")
	}
}

func TestMultiQuantileDistributionShift(t *testing.T) {
	phis := []float64{0.1, 0.9}
	tr, _ := New(Config{K: 4, Eps: 0.05, Phis: phis})
	o := oracle.New()
	low := stream.Uniform(1<<20, 12000, 57)
	high := &offsetGen{g: stream.Uniform(1<<20, 25000, 59), off: 1 << 36}
	g := stream.Perturb(stream.Concat(low, high))
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(i%4, x)
		o.Add(x)
		if i%499 != 0 || i < 100 {
			continue
		}
		for qi, phi := range phis {
			if e := o.QuantileRankError(tr.QuantileAt(qi), phi); e > 0.05 {
				t.Fatalf("step %d phi=%g: rank error %.5f during shift", i, phi, e)
			}
		}
	}
}
