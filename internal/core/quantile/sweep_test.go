package quantile

import (
	"fmt"
	"math"
	"testing"

	"disttrack/internal/oracle"
	"disttrack/internal/stream"
)

// sweepPhis are the quantiles every sweep tracker follows: both tails and
// the median, so a drift report's two sides weigh 99:1, 1:1 and 1:99.
var sweepPhis = []float64{0.01, 0.5, 0.99}

// TestContractSweep holds the §3.1 contract across ε, k, stream shape and
// delivery path. After every call every site's unreported signed drift
// |(1−φ)·L_j − φ·R_j| is below thrLR, the invariant the ε bound rests on. At
// every doubling of |A| (and at the end) every tracked M is within ε|A| of
// its rank. In every round the drift reports number at most
// Σ_φ ⌈max(φ, 1−φ)·(arrivals in the round)/thrLR⌉ + k: a report needs
// thrLR/max(φ, 1−φ) arrivals at its site, so the signed rule never costs
// more reports than the paper's per-side batches, and on sorted and
// reverse-sorted streams, where every arrival lands on one side of M, the
// bound is close to tight. Each stream is at least 2^14 items and 2.25
// bootstrap targets long, so the tracker reaches a second round and the
// contract is checked while tracking.
func TestContractSweep(t *testing.T) {
	streams := []struct {
		name string
		gen  func(n int64) stream.Generator
	}{
		{"zipf", func(n int64) stream.Generator { return stream.Perturb(stream.Zipf(1<<20, n, 1.2, 31)) }},
		{"uniform", func(n int64) stream.Generator { return distinctUniform(n, 32) }},
		{"sorted", stream.Sequential},
		{"reverse-sorted", reverseSorted},
		{"drift", func(n int64) stream.Generator { return driftStream(n, 33) }},
	}
	for _, s := range streams {
		cache := map[int64][]uint64{}
		for _, eps := range []float64{0.2, 0.05, 0.02, 1.0 / 64} {
			for _, k := range []int{1, 8, 32} {
				cfg := Config{K: k, Eps: eps, Phis: sweepPhis}
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
					})
				}
			}
		}
	}
}

// reverseSorted returns n, n−1, ..., 1.
func reverseSorted(n int64) stream.Generator {
	items := make([]uint64, n)
	for i := range items {
		items[i] = uint64(n - int64(i))
	}
	return stream.FromSlice(items)
}

// driftStream is a perturbed uniform stream whose mass jumps to a disjoint,
// higher value range a third of the way in, so every tracked M has to move.
// The offset keeps values below 2^40, where perturbation is lossless.
func driftStream(n, seed int64) stream.Generator {
	return stream.Perturb(stream.Concat(stream.Uniform(1<<20, n/3, seed),
		&offsetGen{g: stream.Uniform(1<<20, n-n/3, seed+1), off: 1 << 36}))
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

	// The round whose drift reports are being counted: a call's arrivals and
	// reports go to the round in effect when it began. A round's threshold
	// only grows with m, so reports made after a round change inside the
	// call need no more arrivals than the old threshold already asks.
	round, thr := 0, int64(0)
	var startTotal, startReports int64

	const batch = 64
	for i := 0; i < len(items); {
		beforeTotal, beforeReports := tr.TrueTotal(), tr.Meter().Kind("drift").Msgs
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

		if tr.Rounds() != round || i == len(items) {
			if round == 0 {
				// The bootstrap ended inside this call: its tracked arrivals
				// start round 1's count.
				startTotal, startReports = beforeTotal, beforeReports
			} else {
				arrivals := tr.TrueTotal() - startTotal
				reports := tr.Meter().Kind("drift").Msgs - startReports
				bound := int64(cfg.K)
				for _, phi := range sweepPhis {
					bound += int64(math.Ceil(max(phi, 1-phi) * float64(arrivals) / float64(thr)))
				}
				if reports > bound {
					t.Fatalf("|A|=%d: round %d made %d drift reports over %d arrivals at thrLR %d, bound %d",
						o.Len(), round, reports, arrivals, thr, bound)
				}
				startTotal, startReports = tr.TrueTotal(), tr.Meter().Kind("drift").Msgs
			}
			round, thr = tr.Rounds(), tr.p.thrLR
		}
		if round > 0 {
			checkDriftBelowThreshold(t, tr)
		}

		if o.Len() >= next || i == len(items) {
			for qi, phi := range sweepPhis {
				if e := o.QuantileRankError(tr.QuantileAt(qi), phi); e > cfg.Eps {
					t.Fatalf("|A|=%d: quantile %g is %.4f·|A| off its rank, over ε = %g", o.Len(), phi, e, cfg.Eps)
				}
			}
			for next <= o.Len() {
				next *= 2
			}
		}
	}
	return tr
}

// checkDriftBelowThreshold fails unless every site's unreported arrivals
// left and right of each M are non-negative and hold a signed drift
// |(1−φ)·L_j − φ·R_j| below thrLR, computed here in the textbook form (a
// relative slack of 1e-12 absorbs the rounding of either form).
func checkDriftBelowThreshold(t *testing.T, tr *Tracker) {
	t.Helper()
	thr := float64(tr.p.thrLR)
	for j, s := range tr.p.sites {
		for qi, d := range s.drift {
			phi := tr.p.cfg.Phis[qi]
			signed := (1-phi)*float64(d[0]) - phi*float64(d[1])
			if d[0] < 0 || d[1] < 0 || math.Abs(signed) >= thr*(1+1e-12) {
				t.Fatalf("|A|=%d: site %d holds unreported drift L=%d R=%d for phi %g, signed %.3f, thrLR %d",
					tr.TrueTotal(), j, d[0], d[1], phi, signed, tr.p.thrLR)
			}
		}
	}
}
