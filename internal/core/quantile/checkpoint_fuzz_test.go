package quantile

import (
	"bytes"
	"encoding/binary"
	"testing"

	"disttrack/internal/ckpt"
)

// fuzzCfg is FuzzRestore's tracker: k = 3, ε = 0.1, past its bootstrap
// (⌈32k/ε⌉ = 960 items) after the 2,000 items fuzzTracker feeds it.
var fuzzCfg = Config{K: 3, Eps: 0.1, Phis: []float64{0.25, 0.75}}

func fuzzTracker(tb testing.TB) *Tracker {
	tr, err := New(fuzzCfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		tr.Feed(i%3, uint64(i)) // distinct values, as the perturbed stream guarantees
	}
	return tr
}

// refusedCheckpoint is a well-framed checkpoint of fuzzTracker's state
// holding one count no run of the protocol leaves behind.
type refusedCheckpoint struct {
	name string
	data []byte
}

// refusedCheckpoints returns one refusedCheckpoint per refusal DecodeState
// must give.
func refusedCheckpoints(tb testing.TB) []refusedCheckpoint {
	var out []refusedCheckpoint
	for _, m := range []struct {
		name   string
		mutate func(p *policy)
	}{
		{"negative total delta", func(p *policy) { p.sites[0].totDelta = -1 }},
		{"negative interval delta", func(p *policy) { p.sites[1].ivDelta[0] = -1 }},
		{"negative site drift", func(p *policy) { p.sites[2].drift[0] = [2]int64{-1, 0} }},
		// φ = 0.75: L − 0.75·(L+R) with L = 4·thrLR, R = 0 is thrLR exactly.
		{"site drift at thrLR", func(p *policy) { p.sites[0].drift[1] = [2]int64{4 * p.thrLR, 0} }},
		{"negative coordinator dR", func(p *policy) { p.qs[0].dR = -1 }},
		{"quantile phi out of step", func(p *policy) { p.qs[1].phi = 0.5 }},
	} {
		tr := fuzzTracker(tb)
		m.mutate(tr.p)
		var buf bytes.Buffer
		if err := tr.Checkpoint(&buf); err != nil {
			tb.Fatal(err)
		}
		out = append(out, refusedCheckpoint{m.name, buf.Bytes()})
	}
	return out
}

// TestRestoreRefusesImpossibleDeltas: a checkpoint whose site holds a
// negative count, or a drift pair it would already have reported, does not
// restore. The drift rule is the invariant the ε bound rests on.
func TestRestoreRefusesImpossibleDeltas(t *testing.T) {
	for _, c := range refusedCheckpoints(t) {
		tr, err := New(fuzzCfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Restore(bytes.NewReader(c.data)); err == nil {
			t.Errorf("%s: restored without error", c.name)
		}
	}
}

// FuzzRestore is the quantile counterpart of hh's FuzzRestore: arbitrary
// bytes through the checkpoint restore path, raw and re-framed with a valid
// checksum so the policy decoder itself sees the garbage. Must error, never
// panic. The seeds include one checkpoint per refusal of DecodeState's
// delta checks.
func FuzzRestore(f *testing.F) {
	var buf bytes.Buffer
	if err := fuzzTracker(f).Checkpoint(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(append([]byte(nil), valid...))
	f.Add(append([]byte(nil), valid[:len(valid)/2]...))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-5] ^= 0x01
	f.Add(flipped)
	f.Add(append([]byte(nil), valid[10:len(valid)-4]...)) // bare payload
	f.Add([]byte{})
	for _, c := range refusedCheckpoints(f) {
		f.Add(c.data)
	}

	magic := binary.LittleEndian.Uint32(valid[0:4])
	version := binary.LittleEndian.Uint16(valid[4:6])

	f.Fuzz(func(t *testing.T, data []byte) {
		fresh := func() *Tracker {
			tr, err := New(fuzzCfg)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		_ = fresh().Restore(bytes.NewReader(data))
		var fb bytes.Buffer
		if err := ckpt.WriteFrame(&fb, magic, version, data); err != nil {
			t.Fatal(err)
		}
		_ = fresh().Restore(&fb)
	})
}
