package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterSemantics(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("test_total", "help")
	c.Inc()
	c.Add(4)
	c.Add(0)
	c.Add(-3) // negative deltas are dropped, not applied
	if got := c.Value(); got != 5 {
		t.Fatalf("counter value = %d, want 5", got)
	}
}

func TestGaugeSemantics(t *testing.T) {
	reg := NewRegistry()
	g := reg.NewGauge("test_gauge", "help")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge value = %g, want 1.5", got)
	}
	g.SetInt(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge value = %g, want 7", got)
	}
}

func TestHistogramSemantics(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("test_hist", "help", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("histogram count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-556.5) > 1e-9 {
		t.Fatalf("histogram sum = %g, want 556.5", got)
	}
	// Bucket cumulation happens at exposition: 0.5 and 1 land in le=1
	// (bounds are inclusive upper edges), 5 in le=10, 50 in le=100, 500 in
	// +Inf.
	var sb strings.Builder
	if err := reg.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`test_hist_bucket{le="1"} 2`,
		`test_hist_bucket{le="10"} 3`,
		`test_hist_bucket{le="100"} 4`,
		`test_hist_bucket{le="+Inf"} 5`,
		`test_hist_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVecResolveAndRemove(t *testing.T) {
	reg := NewRegistry()
	v := reg.NewCounterVec("vec_total", "help", "tenant")
	a := v.With("a")
	b := v.With("b")
	a.Add(3)
	b.Add(7)
	v.With("a").Add(2) // same underlying series as a
	if got := a.Value(); got != 5 {
		t.Fatalf("With did not resolve the same series: a = %d, want 5", got)
	}
	if !v.Remove("a") {
		t.Fatal("Remove(a) reported missing")
	}
	if v.Remove("a") {
		t.Fatal("second Remove(a) reported present")
	}
	var sb strings.Builder
	if err := reg.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, `tenant="a"`) {
		t.Fatalf("removed series still exported:\n%s", out)
	}
	if !strings.Contains(out, `vec_total{tenant="b"} 7`) {
		t.Fatalf("surviving series missing:\n%s", out)
	}
}

func TestVecLabelArityPanics(t *testing.T) {
	reg := NewRegistry()
	v := reg.NewCounterVec("vec_total", "help", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("dup_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.NewGauge("dup_total", "help")
}

func TestInvalidNamePanics(t *testing.T) {
	for _, name := range []string{"", "9starts_with_digit", "has-dash", "has space"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q did not panic", name)
				}
			}()
			NewRegistry().NewCounter(name, "help")
		}()
	}
}

func TestGaugeFunc(t *testing.T) {
	reg := NewRegistry()
	v := 41.0
	reg.NewGaugeFunc("fn_gauge", "help", func() float64 { return v })
	v = 42
	var sb strings.Builder
	if err := reg.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fn_gauge 42\n") {
		t.Fatalf("gauge func not sampled at scrape:\n%s", sb.String())
	}
}

// TestFuncBacked checks that func-backed counters and gauges export their
// owner's value at each exposition, that rebinding a label tuple points its
// series at the new function, and that Remove drops a func-backed series.
func TestFuncBacked(t *testing.T) {
	reg := NewRegistry()
	var n, a, b int64 = 7, 1, 2
	reg.NewCounterFunc("fn_total", "help", func() int64 { return n })
	vec := reg.NewCounterVec("fn_vec_total", "help", "tenant")
	vec.WithFunc(func() int64 { return a }, "x")
	vec.WithFunc(func() int64 { return b }, "y")
	gv := reg.NewGaugeVec("fn_vec", "help", "tenant")
	gv.WithFunc(func() float64 { return 0.5 }, "x")
	expose := func() string {
		var sb strings.Builder
		if err := reg.Expose(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	n, a = 9, 3
	out := expose()
	for _, want := range []string{
		"fn_total 9\n",
		`fn_vec_total{tenant="x"} 3` + "\n",
		`fn_vec_total{tenant="y"} 2` + "\n",
		`fn_vec{tenant="x"} 0.5` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	vec.WithFunc(func() int64 { return 40 }, "x") // a new owner under the same name
	if !vec.Remove("y") || !gv.Remove("x") {
		t.Fatal("Remove did not find a func-backed series")
	}
	out = expose()
	if !strings.Contains(out, `fn_vec_total{tenant="x"} 40`) ||
		strings.Contains(out, `tenant="y"`) || strings.Contains(out, `fn_vec{`) {
		t.Fatalf("rebind or remove not reflected:\n%s", out)
	}
}

func TestScrapeHooksRunBeforeExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("hooked_total", "help")
	runs := 0
	reg.OnScrape(func() {
		runs++
		c.Inc()
	})
	var sb strings.Builder
	if err := reg.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	if runs != 1 || !strings.Contains(sb.String(), "hooked_total 1") {
		t.Fatalf("hook runs = %d, exposition:\n%s", runs, sb.String())
	}
}

func TestExpositionFormat(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounterVec("fmt_total", "counts \"things\"\nacross lines", "name").
		With(`va"l\ue` + "\n").Inc()
	var sb strings.Builder
	if err := reg.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `# HELP fmt_total counts "things"\nacross lines`) {
		t.Fatalf("HELP line wrong:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE fmt_total counter") {
		t.Fatalf("TYPE line wrong:\n%s", out)
	}
	if !strings.Contains(out, `fmt_total{name="va\"l\\ue\n"} 1`) {
		t.Fatalf("label escaping wrong:\n%s", out)
	}
}

func TestExpBucketHelpers(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	if len(DurationBuckets()) != 12 || len(SizeBuckets()) != 10 {
		t.Fatalf("default bucket set sizes = %d/%d", len(DurationBuckets()), len(SizeBuckets()))
	}
}

func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("conc_total", "help")
	h := reg.NewHistogram("conc_hist", "help", DurationBuckets())
	g := reg.NewGauge("conc_gauge", "help")
	const (
		workers = 8
		perW    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				c.Inc()
				h.Observe(1e-5)
				g.Add(1)
			}
		}()
	}
	// Scrape concurrently with the writers; the output must stay parseable
	// (we only assert no panic/race here, values at the end).
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := reg.Expose(&sb); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if c.Value() != workers*perW {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*perW)
	}
	if h.Count() != workers*perW {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perW)
	}
	if g.Value() != workers*perW {
		t.Fatalf("gauge = %g, want %d", g.Value(), workers*perW)
	}
}
