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

// checkpoint-noboot.bin was written by a tracker built from goldenCfg and
// fed the first 4,000 items of goldenStream round robin, after the
// coordinator began dropping its bootstrap list at the handoff: its list is
// empty. checkpoint-h17.bin, written while the list outlived the handoff,
// still restores with its list (TestRestoreGolden). checkpoint-noboot.bin
// was written while round builds sampled every site; checkpoint-merge-6000.bin
// holds the first 6,000 items under the first round cut from the bootstrap
// list and one doubling merged from the old leaves. It was written while an
// "rb-counts" reply sent each rank as a word of its own;
// checkpoint-pack-6000.bin holds the same prefix, and the same protocol
// state, under packed rank differences, so only its checkpointed meter
// differs. It was written while leaf splits rebuilt the leaf from sampled
// separators; checkpoint-cut-6000.bin holds the same prefix with every leaf
// split cut at the weighted median of one local median per site, and every
// round's "rb-tree" carrying m′. It was written while a round's height cap
// was its built tree's height + 2 (h = 9 there); checkpoint-bal-6000.bin
// holds the same prefix under caps counted from balancedHeight (h = 8).

// TestRestoreGoldenNoBoot pins the checkpoints a tracker writes after the
// handoff: the golden bytes restore with no bootstrap list and re-encode bit
// for bit, and the restored tracker keeps the rank contract as it continues.
// Where today's protocol still writes the golden from scratch (twin), a twin
// fed the same prefix writes the same bytes.
func TestRestoreGoldenNoBoot(t *testing.T) {
	for _, g := range []struct {
		file string
		n    int
		twin bool
	}{
		{"checkpoint-noboot.bin", 4000, false},
		{"checkpoint-merge-6000.bin", 6000, false},
		{"checkpoint-pack-6000.bin", 6000, false},
		{"checkpoint-cut-6000.bin", 6000, false},
		{"checkpoint-bal-6000.bin", 6000, true},
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
			if tr.Bootstrapping() || tr.TrueTotal() != int64(g.n) || len(tr.p.boot.Keys()) != 0 {
				t.Fatalf("restored bootstrapping %v, n %d, %d bootstrap keys; want false, %d, 0",
					tr.Bootstrapping(), tr.TrueTotal(), len(tr.p.boot.Keys()), g.n)
			}
			var again bytes.Buffer
			if err := tr.Checkpoint(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), golden) {
				t.Fatal("re-encoding the restored tracker does not reproduce the golden bytes")
			}

			twin, err := New(goldenCfg)
			if err != nil {
				t.Fatal(err)
			}
			gen := goldenStream(20000)
			o := oracle.New()
			for i := 0; i < g.n; i++ {
				x, _ := gen.Next()
				twin.Feed(i%goldenCfg.K, x)
				o.Add(x)
			}
			var twinBytes bytes.Buffer
			if err := twin.Checkpoint(&twinBytes); err != nil {
				t.Fatal(err)
			}
			if g.twin && !bytes.Equal(twinBytes.Bytes(), golden) {
				t.Fatal("a twin fed the same prefix does not write the golden bytes")
			}
			rounds := tr.Rounds()
			// g.n is even, so round robin from 0 continues the golden site order.
			feedAndCheckRanks(t, tr, o, gen, stream.RoundRobin(goldenCfg.K))
			if tr.Rounds() <= rounds {
				t.Fatalf("restored tracker never started a round of its own (rounds %d)", tr.Rounds())
			}
		})
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
		{"h below floor", consistent(restoreMinHeight - 1), false},
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

// checkpoint-h5.bin was written by a tracker built from h5Cfg and fed the
// first h5N items of goldenStream round robin, while minHeight was 5 and
// rebuilds sampled at εm/64k: its round runs at h = 5, the floor a
// checkpoint may still carry (restoreMinHeight).
var h5Cfg = Config{K: 2, Eps: 0.4}

const h5N = 1938

// TestRestoreGoldenH5 restores a round at h = 5, below the floor new rounds
// use. It re-encodes to the same bytes, keeps the rank contract as it
// continues, and every leaf its rebuilds and leaf splits make before the
// next round starts below the restored round's trigger (rebuildStep caps
// the step there, and a cut's halves are cut again until they are); the
// next round takes a cap of at least minHeight.
func TestRestoreGoldenH5(t *testing.T) {
	golden, err := os.ReadFile("testdata/checkpoint-h5.bin")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(h5Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Restore(bytes.NewReader(golden)); err != nil {
		t.Fatal(err)
	}
	if tr.HeightBound() != 5 || tr.Rounds() != 3 || tr.RoundM() != 1292 || tr.TrueTotal() != h5N {
		t.Fatalf("restored h %d, rounds %d, m %d, n %d; want 5, 3, 1292, %d",
			tr.HeightBound(), tr.Rounds(), tr.RoundM(), tr.TrueTotal(), h5N)
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
	for i := 0; i < h5N; i++ {
		x, _ := gen.Next()
		o.Add(x)
	}
	p := tr.p
	w := newBuildWatch(tr)
	w.rounds = -1
	w.next() // the restored tree is not fresh
	probes := make([]uint64, 0, 258)
	capped := 0
	for i := h5N; ; i++ {
		x, ok := gen.Next()
		if !ok {
			break
		}
		tr.Feed(i%h5Cfg.K, x)
		o.Add(x)
		if fresh, _, _, _ := w.next(); len(fresh) > 0 && tr.Rounds() == 3 {
			capped++
			for _, u := range fresh {
				if u.isLeaf() && u.s >= p.leafSplitAt {
					t.Fatalf("|A|=%d: a leaf rebuilt at h = 5 holds %d, not below its trigger %d", i+1, u.s, p.leafSplitAt)
				}
			}
		}
		if i%97 == 0 {
			probes = probes[:0]
			for j := 0; j <= 128; j++ {
				q := o.Quantile(float64(j) / 128)
				probes = append(probes, q, q+1)
			}
			checkRanks(t, tr, o, probes)
		}
	}
	if capped == 0 {
		t.Fatal("no rebuild or leaf split ran in the restored h = 5 round")
	}
	if tr.Rounds() <= 3 || tr.HeightBound() < minHeight {
		t.Fatalf("rounds %d, h %d: want a new round at h ≥ %d", tr.Rounds(), tr.HeightBound(), minHeight)
	}
}

// TestRestoreHeightFloor re-encodes the h = 5 golden state at neighbouring
// caps: h = 4, below restoreMinHeight, is refused although the tree is only
// four levels tall; 5 and 6 restore (their deltas clamped below the cap's
// site batch, which DecodeState checks on its own).
func TestRestoreHeightFloor(t *testing.T) {
	golden, err := os.ReadFile("testdata/checkpoint-h5.bin")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		h  int
		ok bool
	}{{restoreMinHeight - 1, false}, {restoreMinHeight, true}, {minHeight, true}} {
		h, ok := tc.h, tc.ok
		src, _ := New(h5Cfg)
		if err := src.Restore(bytes.NewReader(golden)); err != nil {
			t.Fatal(err)
		}
		if th := src.TreeStats().Height; th > restoreMinHeight-1 {
			t.Fatalf("golden tree height %d: h = %d would be refused for the tree, not the floor", th, restoreMinHeight-1)
		}
		p := src.p
		p.h = h
		p.theta, p.thrNode, p.leafSplitAt = roundParams(p.cfg.Eps, p.cfg.K, p.m, h)
		// A taller cap shrinks the site batch: keep every delta below it, so
		// the height alone decides.
		for _, s := range p.sites {
			for i, d := range s.delta {
				s.delta[i] = min(d, p.thrNode-1)
			}
		}
		var buf bytes.Buffer
		if err := src.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		dst, _ := New(h5Cfg)
		if err := dst.Restore(&buf); (err == nil) != ok {
			t.Fatalf("h = %d: restore error %v, want ok = %v", h, err, ok)
		}
	}
}
