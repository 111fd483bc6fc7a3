package allq

import (
	"fmt"
	"testing"

	"disttrack/internal/oracle"
	"disttrack/internal/stream"
)

// TestContractSweep holds the §4 contract across ε, k, stream shape and
// delivery path. At every doubling of |A| (and at the end) no rank is
// overestimated or off by more than ε|A| and the tree is no taller than its
// round's height cap. After every structural change no leaf holds more than
// its split trigger and a leaf split adds leaves. Uniform streams never
// deepen the tree past a round's cap, so they start no round for it. Zipf
// and sorted streams deepen it at their hot spots, and so can the drift
// stream's jump when it lands while tracking (it starts one such round at
// k = 1, ε ≤ 0.02): the new range lies above every old value, so every later
// arrival goes to the one leaf at the tree's right edge, whose splits stack a
// subtree under it faster than condition (6) rebuilds climb to the root.
// Each stream is at least 2^14 items and 2.25 bootstrap targets long, so the
// tracker reaches a second round and the contract is checked while tracking.
func TestContractSweep(t *testing.T) {
	streams := []struct {
		name         string
		gen          func(n int64) stream.Generator
		heightRounds bool // may start rounds because the tree outgrew its cap
	}{
		{"zipf", func(n int64) stream.Generator { return stream.Perturb(stream.Zipf(1<<20, n, 1.2, 31)) }, true},
		{"uniform", func(n int64) stream.Generator { return distinctUniform(n, 32) }, false},
		{"sorted", stream.Sequential, true},
		// Mass jumps to a disjoint value range a third of the way in.
		{"drift", func(n int64) stream.Generator {
			return stream.Perturb(stream.Concat(stream.Uniform(1<<20, n/3, 33),
				&offsetGen{g: stream.Uniform(1<<20, n-n/3, 34), off: 1 << 36}))
		}, true},
	}
	for _, s := range streams {
		cache := map[int64][]uint64{}
		for _, eps := range []float64{0.2, 0.05, 0.02, 1.0 / 64} {
			for _, k := range []int{1, 8, 32} {
				cfg := Config{K: k, Eps: eps}
				n := max(1<<14, 9*(&policy{cfg: cfg}).bootTarget()/4)
				items, ok := cache[n]
				if !ok {
					g := s.gen(n)
					for x, more := g.Next(); more; x, more = g.Next() {
						items = append(items, x)
					}
					cache[n] = items
				}
				for _, batched := range []bool{false, true} {
					name := fmt.Sprintf("%s/eps=%.4g/k=%d/batched=%v", s.name, eps, k, batched)
					t.Run(name, func(t *testing.T) {
						t.Parallel() // items is shared read-only
						tr := sweepOne(t, cfg, items, batched)
						if tr.Rounds() < 2 {
							t.Fatalf("%d items, %d rounds: the contract was never checked in the tracking phase", n, tr.Rounds())
						}
						if !s.heightRounds && tr.HeightRebuilds() != 0 {
							t.Fatalf("%d of %d rounds forced by the height cap", tr.HeightRebuilds(), tr.Rounds())
						}
					})
				}
			}
		}
	}
}

// TestLeafLoadsAtEveryCap checks the leaf half of the rank bound at every
// height cap a round can take, with every site's separators losing as much
// as they can (step − 1 items each): a leaf one item past its split trigger
// still samples above leafCap, so its rebuild splits it, and a leaf built at
// either sampling step starts no higher than its trigger.
func TestLeafLoadsAtEveryCap(t *testing.T) {
	for _, eps := range []float64{0.9, 0.6, 0.4, 0.2, 0.05, 1.0 / 64} {
		for _, k := range []int{1, 8, 32} {
			for _, m := range []int64{1, 100, 1000, 12345, 1 << 20} {
				for h := minHeight; h <= heightCap(eps); h++ {
					p := &policy{cfg: Config{K: k, Eps: eps}, m: m, h: h}
					p.theta, p.thrNode, p.leafSplitAt = roundParams(eps, k, m, h)
					loss := func(step int64) int64 { return int64(k) * (step - 1) }
					if w := p.leafSplitAt + 1 - loss(p.leafStep()); w <= p.leafCap() {
						t.Errorf("ε=%g k=%d m=%d h=%d: a leaf past its trigger %d samples %d ≤ leafCap %d",
							eps, k, m, h, p.leafSplitAt, w, p.leafCap())
					}
					for _, step := range []int64{p.leafStep(), p.sampleStep()} {
						if c := p.leafCap() + loss(step); c > p.leafSplitAt {
							t.Errorf("ε=%g k=%d m=%d h=%d: a leaf built at step %d holds up to %d, past its trigger %d",
								eps, k, m, h, step, c, p.leafSplitAt)
						}
					}
				}
			}
		}
	}
}

// sweepOne feeds items through Feed (round robin) or FeedLocalBatch (64-item
// batches, round robin over sites), checks the contract as it goes and
// returns the tracker.
func sweepOne(t *testing.T, cfg Config, items []uint64, batched bool) *Tracker {
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.New()
	next := int64(64)
	var probes []uint64
	var rounds, rebuilds, splits, leaves int

	const batch = 64
	for i := 0; i < len(items); {
		if batched {
			end := min(i+batch, len(items))
			tr.FeedLocalBatch((i/batch)%cfg.K, items[i:end])
			for _, x := range items[i:end] {
				o.Add(x)
			}
			i = end
		} else {
			tr.Feed(i%cfg.K, items[i])
			o.Add(items[i])
			i++
		}
		if tr.Rounds() != rounds || tr.Rebuilds() != rebuilds {
			st := tr.TreeStats()
			if st.MaxLeafS > tr.p.leafSplitAt {
				t.Fatalf("|A|=%d: a leaf holds %d items past its split trigger %d",
					o.Len(), st.MaxLeafS, tr.p.leafSplitAt)
			}
			// Only leaf splits ran, each in a rebuild of its own.
			ds := tr.LeafSplits() - splits
			if tr.Rounds() == rounds && tr.Rebuilds()-rebuilds == ds && st.Leaves < leaves+ds {
				t.Fatalf("|A|=%d: %d leaf splits took the tree from %d to %d leaves",
					o.Len(), ds, leaves, st.Leaves)
			}
			rounds, rebuilds, splits, leaves = tr.Rounds(), tr.Rebuilds(), tr.LeafSplits(), st.Leaves
		}
		if o.Len() >= next || i == len(items) {
			probes = probes[:0]
			for j := 0; j <= 128; j++ {
				x := o.Quantile(float64(j) / 128)
				probes = append(probes, x, x+1)
			}
			checkRanks(t, tr, o, probes)
			if h := tr.TreeStats().Height; h > tr.HeightBound() {
				t.Fatalf("|A|=%d: tree height %d over its cap %d", o.Len(), h, tr.HeightBound())
			}
			for next <= o.Len() {
				next *= 2
			}
		}
	}
	return tr
}
