package allq

import (
	"bytes"
	"os"
	"testing"

	"disttrack/internal/oracle"
	"disttrack/internal/stream"
)

// The golden checkpoint was written by a tracker built from goldenCfg and fed
// the first goldenN items of goldenStream round robin, at the commit before
// rounds sized their height cap from the tree they build: every round used
// h = heightCap(0.05) = 17.
var goldenCfg = Config{K: 2, Eps: 0.05}

const goldenN = 300

func goldenStream(n int64) stream.Generator { return distinctUniform(n, 41) }

func readGolden(tb testing.TB) []byte {
	tb.Helper()
	b, err := os.ReadFile("testdata/checkpoint-h17.bin")
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestRestoreGolden pins the checkpoint format: the golden bytes restore,
// re-encode to the same bytes, and the restored tracker keeps the rank
// contract as it continues under the current round rules.
func TestRestoreGolden(t *testing.T) {
	golden := readGolden(t)
	tr, err := New(goldenCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Restore(bytes.NewReader(golden)); err != nil {
		t.Fatal(err)
	}
	if tr.HeightBound() != 17 || tr.Rounds() != 3 || tr.RoundM() != 160 || tr.TrueTotal() != goldenN {
		t.Fatalf("restored h %d, rounds %d, m %d, n %d; want 17, 3, 160, %d",
			tr.HeightBound(), tr.Rounds(), tr.RoundM(), tr.TrueTotal(), goldenN)
	}
	var again bytes.Buffer
	if err := tr.Checkpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), golden) {
		t.Fatal("re-encoding the restored tracker does not reproduce the golden bytes")
	}

	gen := goldenStream(20000)
	o := oracle.New()
	for i := 0; i < goldenN; i++ {
		x, _ := gen.Next()
		o.Add(x)
	}
	// goldenN is even, so round robin from 0 continues the golden site order.
	feedAndCheckRanks(t, tr, o, gen, stream.RoundRobin(goldenCfg.K))
	if tr.Rounds() <= 3 {
		t.Fatalf("restored tracker never started a round of its own (rounds %d)", tr.Rounds())
	}
}

// TestRestoreRejectsRoundParams re-encodes the golden state with round
// parameters no tracker writes — each would void the ε bound — and checks
// that Restore refuses every one, while consistent parameters at any h from
// the tree's height (and minHeight) up to heightCap restore.
func TestRestoreRejectsRoundParams(t *testing.T) {
	hCap := heightCap(goldenCfg.Eps)
	consistent := func(h int) func(p *policy) {
		return func(p *policy) {
			p.h = h
			p.theta, p.thrNode, p.leafSplitAt = roundParams(p.cfg.Eps, p.cfg.K, p.m, h)
		}
	}
	base, err := New(goldenCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Restore(bytes.NewReader(readGolden(t))); err != nil {
		t.Fatal(err)
	}
	treeHeight := base.TreeStats().Height
	for _, tc := range []struct {
		name   string
		mutate func(p *policy)
		ok     bool
	}{
		{"cap", consistent(hCap), true},
		{"tree height", consistent(max(treeHeight, minHeight)), true},
		{"h zero", consistent(0), false},
		{"h below floor", consistent(minHeight - 1), false},
		{"h above cap", consistent(hCap + 1), false},
		{"h below tree height", consistent(treeHeight - 1), false},
		{"theta for another h", func(p *policy) { p.theta = p.cfg.Eps / (2 * float64(p.h-1)) }, false},
		{"site batch", func(p *policy) { p.thrNode++ }, false},
		{"leaf split trigger", func(p *policy) { p.leafSplitAt++ }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, _ := New(goldenCfg)
			if err := src.Restore(bytes.NewReader(readGolden(t))); err != nil {
				t.Fatal(err)
			}
			tc.mutate(src.p)
			var buf bytes.Buffer
			if err := src.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			dst, _ := New(goldenCfg)
			err := dst.Restore(&buf)
			if tc.ok && err != nil {
				t.Fatalf("consistent round parameters rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("restore accepted h=%d θ=%g batch %d leaf split %d",
					src.p.h, src.p.theta, src.p.thrNode, src.p.leafSplitAt)
			}
		})
	}
}
