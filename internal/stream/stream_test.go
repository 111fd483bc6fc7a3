package stream

import (
	"testing"
	"testing/quick"
)

func drain(g Generator) []Item {
	var out []Item
	for {
		x, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, x)
	}
}

func TestFromSlice(t *testing.T) {
	in := []Item{3, 1, 4, 1, 5}
	got := drain(FromSlice(in))
	if len(got) != len(in) {
		t.Fatalf("got %v", got)
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("got %v want %v", got, in)
		}
	}
	// Exhausted generator stays exhausted.
	g := FromSlice(in)
	drain(g)
	if _, ok := g.Next(); ok {
		t.Fatal("exhausted generator returned ok")
	}
}

func TestUniformBoundsAndCount(t *testing.T) {
	got := drain(Uniform(100, 5000, 42))
	if len(got) != 5000 {
		t.Fatalf("len=%d want 5000", len(got))
	}
	for _, x := range got {
		if x >= 100 {
			t.Fatalf("item %d outside universe", x)
		}
	}
}

func TestUniformDeterministic(t *testing.T) {
	a := drain(Uniform(1000, 200, 7))
	b := drain(Uniform(1000, 200, 7))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different streams")
		}
	}
	c := drain(Uniform(1000, 200, 8))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestZipfSkew(t *testing.T) {
	got := drain(Zipf(1000, 20000, 1.5, 11))
	counts := map[Item]int{}
	for _, x := range got {
		if x >= 1000 {
			t.Fatalf("item %d outside universe", x)
		}
		counts[x]++
	}
	// Item 0 should dominate: strictly more frequent than item 10.
	if counts[0] <= counts[10] {
		t.Fatalf("zipf not skewed: counts[0]=%d counts[10]=%d", counts[0], counts[10])
	}
	if counts[0] < len(got)/20 {
		t.Fatalf("zipf head too light: %d of %d", counts[0], len(got))
	}
}

func TestSequential(t *testing.T) {
	got := drain(Sequential(5))
	for i, x := range got {
		if x != uint64(i) {
			t.Fatalf("got %v", got)
		}
	}
}

func TestHotSet(t *testing.T) {
	got := drain(HotSet(10000, 20000, 4, 0.8, 3))
	hot := 0
	for _, x := range got {
		if x < 4 {
			hot++
		} else if x < 4 || x >= 10000 {
			t.Fatalf("item %d outside ranges", x)
		}
	}
	frac := float64(hot) / float64(len(got))
	if frac < 0.75 || frac > 0.85 {
		t.Fatalf("hot fraction %.3f, want ~0.8", frac)
	}
}

func TestConcat(t *testing.T) {
	g := Concat(FromSlice([]Item{1, 2}), FromSlice(nil), FromSlice([]Item{3}))
	got := drain(g)
	want := []Item{1, 2, 3}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestPerturbDistinctAndRecoverable(t *testing.T) {
	base := []Item{7, 7, 7, 2, 7, 2}
	got := drain(Perturb(FromSlice(base)))
	seen := map[Item]bool{}
	for i, key := range got {
		if seen[key] {
			t.Fatalf("duplicate perturbed key %d", key)
		}
		seen[key] = true
		if Unperturb(key) != base[i] {
			t.Fatalf("Unperturb(%d)=%d want %d", key, Unperturb(key), base[i])
		}
	}
	// Order among same-value keys follows arrival order.
	if !(got[0] < got[1] && got[1] < got[2] && got[2] < got[4]) {
		t.Fatalf("perturbed keys for equal values not increasing: %v", got)
	}
}

func TestPerturbPreservesValueOrder(t *testing.T) {
	f := func(a, b uint32) bool {
		// Any key of value a compares below any key of value b iff a < b
		// (for a != b).
		ka := PerturbValue(Item(a)) | 12345
		kb := PerturbValue(Item(b))
		if a < b {
			return ka < kb
		}
		if a > b {
			return ka > kb
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundRobin(t *testing.T) {
	a := RoundRobin(3)
	for i := 0; i < 9; i++ {
		if got := a.Site(i, 0); got != i%3 {
			t.Fatalf("Site(%d)=%d", i, got)
		}
	}
}

func TestRandomAssignRange(t *testing.T) {
	a := RandomAssign(5, 1)
	counts := make([]int, 5)
	for i := 0; i < 5000; i++ {
		s := a.Site(i, 0)
		if s < 0 || s >= 5 {
			t.Fatalf("site %d out of range", s)
		}
		counts[s]++
	}
	for j, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("site %d got %d of 5000, far from uniform", j, c)
		}
	}
}

func TestWeightedAssign(t *testing.T) {
	a := WeightedAssign([]float64{3, 1}, 2)
	counts := make([]int, 2)
	for i := 0; i < 8000; i++ {
		counts[a.Site(i, 0)]++
	}
	frac := float64(counts[0]) / 8000
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("weighted fraction %.3f, want ~0.75", frac)
	}
}

func TestWeightedAssignPanics(t *testing.T) {
	for _, w := range [][]float64{{-1, 2}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WeightedAssign(%v) should panic", w)
				}
			}()
			WeightedAssign(w, 1)
		}()
	}
}

func TestSingleSite(t *testing.T) {
	a := SingleSite(2)
	for i := 0; i < 5; i++ {
		if a.Site(i, uint64(i)) != 2 {
			t.Fatal("SingleSite must always return its site")
		}
	}
}

func TestByHashStable(t *testing.T) {
	a := ByHash(7)
	for x := Item(0); x < 100; x++ {
		s1 := a.Site(0, x)
		s2 := a.Site(99, x)
		if s1 != s2 {
			t.Fatalf("ByHash not stable for item %d", x)
		}
		if s1 < 0 || s1 >= 7 {
			t.Fatalf("site %d out of range", s1)
		}
	}
}

func TestGeneratorPanics(t *testing.T) {
	cases := []func(){
		func() { Uniform(0, 5, 1) },
		func() { Zipf(10, 5, 1.0, 1) },
		func() { HotSet(10, 5, 20, 0.5, 1) },
		func() { HotSet(10, 5, 2, 1.5, 1) },
		func() { Perturb(FromSlice([]Item{1 << (64 - PerturbBits)})).Next() },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			f()
		}()
	}
}
