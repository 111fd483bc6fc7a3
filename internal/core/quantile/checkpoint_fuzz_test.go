package quantile

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"disttrack/internal/ckpt"
	"disttrack/internal/oracle"
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

// endsValues returns the n values endsCheckpoint feeds: distinct, with 0
// first and math.MaxUint64 at every 100th position from the 50th.
func endsValues(n int) []uint64 {
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = uint64(i) << 24
		if i%100 == 50 {
			xs[i] = math.MaxUint64
		}
	}
	return xs
}

// endsCheckpoint returns the checkpoint of a fuzzCfg tracker fed
// endsValues(2000) round robin: past its bootstrap, with both ends of the
// universe in its site stores and in its last interval, which closes at
// math.MaxUint64.
func endsCheckpoint(tb testing.TB) []byte {
	tr, err := New(fuzzCfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i, x := range endsValues(2000) {
		tr.Feed(i%3, x)
	}
	var buf bytes.Buffer
	if err := tr.Checkpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreUniverseEnds restores endsCheckpoint: it re-encodes bit for
// bit, and every arrival, math.MaxUint64 included, lies in an interval whose
// coordinator count plus the sites' unreported deltas is its exact count
// (checkDeltaLaw).
func TestRestoreUniverseEnds(t *testing.T) {
	data := endsCheckpoint(t)
	tr, err := New(fuzzCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Restore(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if got := checkpointBytes(t, tr); !bytes.Equal(got, data) {
		t.Fatal("re-encoding the restored tracker does not reproduce the checkpoint")
	}
	if tr.Bootstrapping() {
		t.Fatal("restored into the bootstrap: nothing of the intervals is checked")
	}
	xs := endsValues(2000)
	truth := oracle.NewCounter(xs)
	for _, x := range xs {
		truth.Add(x)
	}
	checkDeltaLaw(t, "restored", tr, truth)
}

// refusedCheckpoint is a well-framed checkpoint of fuzzTracker's state
// holding one value no run of the protocol leaves behind, and a piece of the
// error that refuses it.
type refusedCheckpoint struct {
	name, want string
	data       []byte
}

// editedCheckpoint returns the checkpoint data with the first run of the
// words from in its payload replaced by to, reframed with a valid checksum,
// as a hand edit would leave it.
func editedCheckpoint(tb testing.TB, data []byte, from, to []uint64) []byte {
	magic := binary.LittleEndian.Uint32(data[0:4])
	version, payload, err := ckpt.ReadFrame(bytes.NewReader(data), magic, len(data))
	if err != nil {
		tb.Fatal(err)
	}
	le := func(ws []uint64) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	i := bytes.Index(payload, le(from))
	if i < 0 {
		tb.Fatalf("words %v not in the checkpoint", from)
	}
	payload = slices.Concat(payload[:i], le(to), payload[i+8*len(from):])
	var buf bytes.Buffer
	if err := ckpt.WriteFrame(&buf, magic, version, payload); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// refusedCheckpoints returns one refusedCheckpoint per refusal DecodeState
// must give.
func refusedCheckpoints(tb testing.TB) []refusedCheckpoint {
	var out []refusedCheckpoint
	for _, m := range []struct {
		name, want string
		mutate     func(p *policy)
	}{
		{"negative total delta", "negative total delta", func(p *policy) { p.sites[0].totDelta = -1 }},
		{"negative interval delta", "negative delta", func(p *policy) { p.sites[1].ivDelta[0] = -1 }},
		{"interval delta at thrIv", "at or past", func(p *policy) { p.sites[1].ivDelta[len(p.seps)] = p.thrIv }},
		{"total delta at thrTot", "at or past", func(p *policy) { p.sites[2].totDelta = p.thrTot }},
		{"negative site drift", "negative drift", func(p *policy) { p.sites[2].drift[0] = [2]int64{-1, 0} }},
		// φ = 0.75: L − 0.75·(L+R) with L = 4·thrIv, R = 0 is thrIv exactly.
		{"site drift at thrIv", "past its report threshold", func(p *policy) { p.sites[0].drift[1] = [2]int64{4 * p.thrIv, 0} }},
		{"negative coordinator dR", "negative drift", func(p *policy) { p.qs[0].dR = -1 }},
		{"quantile phi out of step", "tracks phi", func(p *policy) { p.qs[1].phi = 0.5 }},
	} {
		tr := fuzzTracker(tb)
		m.mutate(tr.p)
		var buf bytes.Buffer
		if err := tr.Checkpoint(&buf); err != nil {
			tb.Fatal(err)
		}
		out = append(out, refusedCheckpoint{m.name, m.want, buf.Bytes()})
	}

	// The drift batch's slot follows thrTot and must repeat thrIv.
	tr := fuzzTracker(tb)
	var buf bytes.Buffer
	if err := tr.Checkpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	p := tr.p
	out = append(out, refusedCheckpoint{"drift batch not thrIv", "differs from interval batch", editedCheckpoint(tb, buf.Bytes(),
		[]uint64{uint64(p.thrTot), uint64(p.thrIv), uint64(p.splitAt)},
		[]uint64{uint64(p.thrTot), uint64(p.thrIv + 1), uint64(p.splitAt)})})

	// A bootstrap list out of order: keys base+5 and base+6 reached sites 2
	// and 0, so they are adjacent in the list alone.
	tr, _ = New(fuzzCfg)
	const base = 1 << 36
	for i := range uint64(100) {
		tr.Feed(int(i%3), base+i)
	}
	buf.Reset()
	if err := tr.Checkpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	out = append(out, refusedCheckpoint{"bootstrap items out of order", "bootstrap items out of order",
		editedCheckpoint(tb, buf.Bytes(), []uint64{base + 5, base + 6}, []uint64{base + 6, base + 5})})
	return out
}

// TestRestoreRefusesImpossibleDeltas: a checkpoint whose site holds a
// negative count, or a count or drift pair it would already have reported,
// does not restore, nor does one whose drift batch is not its interval batch
// or whose bootstrap list is out of order, each for its own reason. A report
// adds exactly its threshold, so an interval or total delta at it would be
// lost; the drift rule is the invariant the ε bound rests on. Deltas one
// below their thresholds still restore.
func TestRestoreRefusesImpossibleDeltas(t *testing.T) {
	for _, c := range refusedCheckpoints(t) {
		tr, err := New(fuzzCfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Restore(bytes.NewReader(c.data)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: restore error %v, want one saying %q", c.name, err, c.want)
		}
	}
	src := fuzzTracker(t)
	p := src.p
	if p.thrIv < 2 {
		t.Fatalf("thrIv %d: no delta below it to keep", p.thrIv)
	}
	p.sites[1].ivDelta[len(p.seps)] = p.thrIv - 1
	p.sites[2].totDelta = p.thrTot - 1
	var buf bytes.Buffer
	if err := src.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	dst, _ := New(fuzzCfg)
	if err := dst.Restore(&buf); err != nil {
		t.Fatalf("deltas one below their thresholds refused: %v", err)
	}
}

// FuzzRestore is the quantile counterpart of hh's FuzzRestore: arbitrary
// bytes through the checkpoint restore path, raw and re-framed with a valid
// checksum so the policy decoder itself sees the garbage. Must error, never
// panic. The seeds include one checkpoint per refusal in
// refusedCheckpoints, and endsCheckpoint, which holds math.MaxUint64.
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
	f.Add(endsCheckpoint(f))

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
