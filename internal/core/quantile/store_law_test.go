package quantile

import (
	"math"
	"slices"
	"testing"
)

// TestBatchedFeedMatchesPerItemAtScale feeds one seeded 200k-item stream
// twice — per item, where every store insert goes through the exact store's
// tail, and in 512-item batches, where it becomes sorted runs — and asserts
// the two trackers cannot be told apart: every tracked quantile at every
// batch boundary, then the protocol statistics and the wire.Meter totals per
// message kind. The stream's mass moves to a disjoint range a third of the
// way in (driftStream), so both feeds must relocate every M and agree on
// when: a stationary stream's signed drift cancels and never relocates.
// (The conformance suite's BatchMatchesFeed law covers the same identity at
// 10k items per site, before the stores have more than a few runs.)
func TestBatchedFeedMatchesPerItemAtScale(t *testing.T) {
	const (
		k     = 4
		n     = 200_000
		batch = 512
	)
	cfg := Config{K: k, Eps: 0.02, Phis: []float64{0.1, 0.5, 0.99}}
	per, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bat, _ := New(cfg)

	gen := driftStream(n, 77)
	xs := make([]uint64, 0, batch)
	for c := 0; ; c++ {
		xs = xs[:0]
		for len(xs) < batch {
			x, ok := gen.Next()
			if !ok {
				break
			}
			xs = append(xs, x)
		}
		if len(xs) == 0 {
			break
		}
		site := c % k
		for _, x := range xs {
			per.Feed(site, x)
		}
		bat.FeedLocalBatch(site, xs)
		if p, b := per.Quantiles(), bat.Quantiles(); !slices.Equal(p, b) {
			t.Fatalf("after batch %d: quantiles per-item %v, batched %v", c, p, b)
		}
	}

	if per.TrueTotal() != n || bat.TrueTotal() != n {
		t.Fatalf("fed %d / %d items, want %d", per.TrueTotal(), bat.TrueTotal(), n)
	}
	if per.Rounds() != bat.Rounds() || per.Splits() != bat.Splits() || per.Relocations() != bat.Relocations() {
		t.Fatalf("rounds/splits/relocations: per-item %d/%d/%d, batched %d/%d/%d",
			per.Rounds(), per.Splits(), per.Relocations(), bat.Rounds(), bat.Splits(), bat.Relocations())
	}
	if per.Rounds() < 5 || per.Splits() == 0 || per.Relocations() == 0 {
		t.Fatalf("stream too tame to pin anything: %d rounds, %d splits, %d relocations",
			per.Rounds(), per.Splits(), per.Relocations())
	}
	if !slices.Equal(per.Meter().Kinds(), bat.Meter().Kinds()) {
		t.Fatalf("message kinds: per-item %v, batched %v", per.Meter().Kinds(), bat.Meter().Kinds())
	}
	for _, kind := range per.Meter().Kinds() {
		if p, b := per.Meter().Kind(kind), bat.Meter().Kind(kind); p != b {
			t.Fatalf("meter kind %q: per-item %+v, batched %+v", kind, p, b)
		}
	}
	for j := 0; j < k; j++ {
		if p, b := per.SiteSpace(j), bat.SiteSpace(j); p != b {
			t.Fatalf("site %d holds %d items fed per item, %d batched", j, p, b)
		}
	}
}

// TestReconfigureShrinkDrainsIntoSiteZero removes two of four sites and
// asserts site 0's store then holds exactly the union of its own items and
// theirs (sitestore.Drain), the surviving site 1 is untouched, and nothing
// was lost in total.
func TestReconfigureShrinkDrainsIntoSiteZero(t *testing.T) {
	const k, n = 4, 30_000
	tr, err := New(Config{K: k, Eps: 0.05, Phi: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	fed := make([][]uint64, k)
	gen := distinctUniform(n, 5)
	for i := 0; ; i++ {
		x, ok := gen.Next()
		if !ok {
			break
		}
		// Uneven shares, so the drained stores differ in size and shape.
		site := []int{0, 1, 2, 2, 3, 2, 0, 3, 3, 3}[i%10]
		tr.Feed(site, x)
		fed[site] = append(fed[site], x)
	}
	if err := tr.Reconfigure(2); err != nil {
		t.Fatal(err)
	}
	want0 := slices.Concat(fed[0], fed[2], fed[3])
	slices.Sort(want0)
	want1 := slices.Clone(fed[1])
	slices.Sort(want1)
	for j, want := range [][]uint64{want0, want1} {
		// Step-1 separators over the whole universe are the sorted items.
		got := tr.p.sites[j].st.Separators(0, math.MaxUint64, 1)
		if !slices.Equal(got, want) {
			t.Fatalf("site %d holds %d items after the shrink, want exactly the %d of the union", j, len(got), len(want))
		}
	}
	if tr.K() != 2 || tr.TrueTotal() != n {
		t.Fatalf("K %d, total %d after the shrink", tr.K(), tr.TrueTotal())
	}
}
