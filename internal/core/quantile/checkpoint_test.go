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
// arrivals past thrLR on one side whose signed drift is still below it. It
// was written while a round build sampled each site every ε·n_j/32 items;
// checkpoint-step16-2000.bin holds the same prefix with the step at
// ε·n_j/16, so its separators are cut from half as many samples.
// Never regenerate them.
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
// while each side of M was reported on its own, and checkpoint-drift-2000.bin
// while a round build sampled at ε·n_j/32, so none of them has a twin; their
// restored trackers are checked against the exact quantiles instead.
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
		{"checkpoint-step16-2000.bin", 2000, false, true},
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
