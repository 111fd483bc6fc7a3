package quantile

import (
	"bytes"
	"os"
	"reflect"
	"slices"
	"testing"

	"disttrack/internal/oracle"
	"disttrack/internal/stream"
)

// The golden checkpoints were written by a tracker built from goldenCfg and
// fed goldenStream round robin. checkpoint-boot.bin (the bootstrap keys
// alone) and checkpoint-round.bin (400 items) date from when the
// coordinator's bootstrap list was still an order-statistics tree and the
// bootstrap ended at ⌈k/ε⌉ = 40 items; checkpoint-round-2000.bin was written
// after the bootstrap moved to 32k/ε = 1,280 items, while a site still
// reported each side of M on its own. checkpoint-drift-2000.bin holds the
// same prefix under the signed drift rule: its sites carry unreported
// arrivals past thrIv on one side whose signed drift is still below it. It
// was written while a round build sampled each site every ε·n_j/32 items;
// checkpoint-step16-2000.bin holds the same prefix with the step at
// ε·n_j/16, so its separators are cut from half as many samples. It was
// written while an interval report carried its count (2 words);
// checkpoint-iv1-2000.bin holds the same prefix, and the same protocol
// state, under the 1-word report, so only its checkpointed meter differs.
// It was written while a round build sampled every site and the coordinator
// kept its bootstrap list after the handoff; checkpoint-merge-3000.bin holds
// 3,000 items under the first round cut from that list, which is then
// dropped, and one doubling rebuilt by merging intervals. It was written
// while a total report fired every εm/8k arrivals, as an interval report
// does; checkpoint-tot-6000.bin holds 6,000 items, three rounds in, under
// the total report every m/8k arrivals and 1-word "split-apply" and
// "split-counts" messages. It was written while a split cut at the weighted
// median of about nine separators from each site; checkpoint-med-6000.bin
// holds the same prefix with every split cut at the n_j-weighted median of
// the sites' lower local medians. It was written while every rank of a
// "round-counts" reply, each "split-resp" median and each "drift" and
// "reloc-resp" count took a word of its own; checkpoint-pack-6000.bin holds
// the same prefix, and the same protocol state, under packed replies and
// "seps" messages that carry the round's m, so only its checkpointed meter
// differs. It was written while a cut's "seps" sent each separator as a
// word and a "drift" report named no quantile; checkpoint-keys-6000.bin
// holds the same prefix and state under the key-list "seps" and the
// indexed "drift", so again only its checkpointed meter differs. Never
// regenerate them.
var goldenCfg = Config{K: 2, Eps: 0.05, Phis: []float64{0.1, 0.5, 0.99}}

// goldenBootKeys open the stream out of order and with 1<<40 twice, so the
// bootstrap checkpoint pins the sorted order of an unsorted arrival sequence
// and a duplicate.
var goldenBootKeys = []uint64{1 << 40, 7 << 24, 0, 1<<54 - 1, 1 << 40, 3<<30 | 5, 12345 << 24, 9}

func goldenStream() stream.Generator {
	return stream.Concat(stream.FromSlice(goldenBootKeys), distinctUniform(20000, 43))
}

// TestRestoreGolden pins the checkpoint format in and after bootstrap: the
// golden bytes restore and re-encode bit for bit, and fed on, the restored
// tracker starts rounds of its own. Where today's protocol still writes the
// golden from scratch (twin), a twin fed the same prefix writes the same
// bytes, and fed on in lockstep the restored tracker and the twin agree on
// every meter, round count and quantile. checkpoint-round.bin holds a round
// the bootstrap now still covers, checkpoint-round-2000.bin was written
// while each side of M was reported on its own, checkpoint-drift-2000.bin
// while a round build sampled at ε·n_j/32, checkpoint-step16-2000.bin
// while an interval report cost 2 words, checkpoint-iv1-2000.bin while
// round builds sampled every site, checkpoint-merge-3000.bin while a total
// report fired every εm/8k arrivals, checkpoint-tot-6000.bin while a
// split sampled about nine separators per site, checkpoint-med-6000.bin
// while a reply spent a word on every rank, median and count and
// checkpoint-pack-6000.bin while a cut's separators took a word each, so
// none of them has a twin; their restored trackers are checked against the
// exact quantiles instead.
func TestRestoreGolden(t *testing.T) {
	for _, g := range []struct {
		file string
		n    int
		boot bool
		twin bool
	}{
		{"checkpoint-boot.bin", len(goldenBootKeys), true, true},
		{"checkpoint-round.bin", 400, false, false},
		{"checkpoint-round-2000.bin", 2000, false, false},
		{"checkpoint-drift-2000.bin", 2000, false, false},
		{"checkpoint-step16-2000.bin", 2000, false, false},
		{"checkpoint-iv1-2000.bin", 2000, false, false},
		{"checkpoint-merge-3000.bin", 3000, false, false},
		{"checkpoint-tot-6000.bin", 6000, false, false},
		{"checkpoint-med-6000.bin", 6000, false, false},
		{"checkpoint-pack-6000.bin", 6000, false, false},
		{"checkpoint-keys-6000.bin", 6000, false, true},
	} {
		t.Run(g.file, func(t *testing.T) {
			golden, err := os.ReadFile("testdata/" + g.file)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := New(goldenCfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Restore(bytes.NewReader(golden)); err != nil {
				t.Fatal(err)
			}
			if tr.Bootstrapping() != g.boot || tr.TrueTotal() != int64(g.n) {
				t.Fatalf("restored bootstrapping %v, n %d; want %v, %d", tr.Bootstrapping(), tr.TrueTotal(), g.boot, g.n)
			}
			if g.boot {
				sorted := slices.Sorted(slices.Values(goldenBootKeys))
				for i, phi := range goldenCfg.Phis {
					want := sorted[min(int(phi*float64(len(sorted))), len(sorted)-1)]
					if got := tr.QuantileAt(i); got != want {
						t.Fatalf("restored bootstrap quantile %g = %d, want %d", phi, got, want)
					}
				}
			}
			if got := checkpointBytes(t, tr); !bytes.Equal(got, golden) {
				t.Fatal("re-encoding the restored tracker does not reproduce the golden bytes")
			}

			twin, err := New(goldenCfg)
			if err != nil {
				t.Fatal(err)
			}
			o := oracle.New()
			gen := goldenStream()
			for i := 0; i < g.n; i++ {
				x, _ := gen.Next()
				twin.Feed(i%goldenCfg.K, x)
				o.Add(x)
			}
			if got := checkpointBytes(t, twin); g.twin && !bytes.Equal(got, golden) {
				t.Fatal("a twin fed the same prefix does not write the golden bytes")
			}
			restoredRounds := tr.Rounds()
			for i := g.n; ; i++ {
				x, ok := gen.Next()
				if !ok {
					break
				}
				tr.Feed(i%goldenCfg.K, x)
				twin.Feed(i%goldenCfg.K, x)
				o.Add(x)
				if i%97 == 0 && g.twin {
					sameState(t, i, tr, twin)
				}
			}
			if g.twin {
				sameState(t, -1, tr, twin)
			}
			for i, phi := range goldenCfg.Phis {
				if e := o.QuantileRankError(tr.QuantileAt(i), phi); e > goldenCfg.Eps {
					t.Fatalf("restored quantile %g is %.3f·n off its rank, want <= ε", phi, e)
				}
			}
			if tr.Rounds() <= restoredRounds {
				t.Fatalf("restored tracker never started a round of its own (rounds %d)", tr.Rounds())
			}
		})
	}
}

func checkpointBytes(t *testing.T, tr *Tracker) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameState fails unless a and b agree on meters, rounds and quantiles.
func sameState(t *testing.T, step int, a, b *Tracker) {
	t.Helper()
	if !reflect.DeepEqual(a.Meter().State(), b.Meter().State()) {
		t.Fatalf("step %d: meters differ: %+v vs %+v", step, a.Meter().State(), b.Meter().State())
	}
	if a.Rounds() != b.Rounds() {
		t.Fatalf("step %d: rounds %d vs %d", step, a.Rounds(), b.Rounds())
	}
	if qa, qb := a.Quantiles(), b.Quantiles(); !slices.Equal(qa, qb) {
		t.Fatalf("step %d: quantiles %v vs %v", step, qa, qb)
	}
}

// TestRestoreFinishesRoundOnStoredThreshold restores checkpoint-merge-3000.bin,
// written while a total report fired every εm/8k arrivals: the restored
// round keeps its stored thrTot, equal to thrIv, and the next round, whose
// thresholds this build sets, reports the total every m/8k arrivals.
func TestRestoreFinishesRoundOnStoredThreshold(t *testing.T) {
	golden, err := os.ReadFile("testdata/checkpoint-merge-3000.bin")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(goldenCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Restore(bytes.NewReader(golden)); err != nil {
		t.Fatal(err)
	}
	p := tr.p
	if p.thrTot != p.thrIv {
		t.Fatalf("restored thrTot %d, want the stored εm/8k = thrIv = %d", p.thrTot, p.thrIv)
	}
	rounds, stored := tr.Rounds(), p.thrTot
	gen := goldenStream()
	for i := 0; tr.Rounds() == rounds; i++ {
		x, ok := gen.Next()
		if !ok {
			t.Fatalf("the golden stream ended before the restored round (m = %d)", p.m)
		}
		if i >= 3000 {
			tr.Feed(i%goldenCfg.K, x)
		}
		if tr.Rounds() == rounds && p.thrTot != stored {
			t.Fatalf("|A|=%d: thrTot %d inside the restored round, want the stored %d", tr.TrueTotal(), p.thrTot, stored)
		}
	}
	want := max(1, p.m/(8*int64(goldenCfg.K)))
	if p.thrTot != want || p.thrTot <= p.thrIv {
		t.Fatalf("next round (m = %d): thrTot %d, thrIv %d; want thrTot = m/8k = %d", p.m, p.thrTot, p.thrIv, want)
	}
}
