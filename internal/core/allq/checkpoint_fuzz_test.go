package allq

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"disttrack/internal/ckpt"
	"disttrack/internal/oracle"
)

// deltaTracker is a goldenCfg tracker fed far enough past its bootstrap
// that a node report batches more than one arrival (thrNode ≥ 2).
func deltaTracker(tb testing.TB) *Tracker {
	tr, err := New(goldenCfg)
	if err != nil {
		tb.Fatal(err)
	}
	gen := goldenStream(20000)
	for i := 0; ; i++ {
		x, ok := gen.Next()
		if !ok {
			break
		}
		tr.Feed(i%goldenCfg.K, x)
	}
	if tr.Bootstrapping() || tr.p.thrNode < 2 {
		tb.Fatalf("bootstrapping %v, thrNode %d: want a tracking round batching ≥ 2 arrivals", tr.Bootstrapping(), tr.p.thrNode)
	}
	return tr
}

// deltaCheckpoint returns deltaTracker's checkpoint with site j's delta for
// the node at preorder position i set to d, as a hand edit would leave it.
func deltaCheckpoint(tb testing.TB, j, i int, d func(p *policy) int64) []byte {
	tr := deltaTracker(tb)
	p := tr.p
	p.sites[j].delta[collectNodes(p.root)[i].id] = d(p)
	var buf bytes.Buffer
	if err := tr.Checkpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// bootCheckpoint returns the checkpoint of a goldenCfg tracker in its
// bootstrap with two keys of its list swapped, reframed with a valid
// checksum, as a hand edit would leave it. Keys base+5 and base+6 reached
// sites 1 and 0, so they are adjacent in the list alone.
func bootCheckpoint(tb testing.TB) []byte {
	tr, err := New(goldenCfg)
	if err != nil {
		tb.Fatal(err)
	}
	const base = 1 << 36
	for i := range uint64(100) {
		tr.Feed(int(i%2), base+i)
	}
	var buf bytes.Buffer
	if err := tr.Checkpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	data := buf.Bytes()
	magic := binary.LittleEndian.Uint32(data[0:4])
	version, payload, err := ckpt.ReadFrame(bytes.NewReader(data), magic, len(data))
	if err != nil {
		tb.Fatal(err)
	}
	le := func(a, b uint64) []byte {
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, a), b)
	}
	i := bytes.Index(payload, le(base+5, base+6))
	if i < 0 {
		tb.Fatal("keys base+5, base+6 not adjacent in the checkpoint")
	}
	copy(payload[i:], le(base+6, base+5))
	buf.Reset()
	if err := ckpt.WriteFrame(&buf, magic, version, payload); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// refusedCheckpoint is a well-framed checkpoint holding one value no run of
// the protocol leaves behind, and a piece of the error that refuses it.
type refusedCheckpoint struct {
	name, want string
	data       []byte
}

// refusedCheckpoints returns one checkpoint per refusal of DecodeState's
// checks: a negative node delta, one at thrNode, which the site would
// already have reported, and a bootstrap list out of order.
func refusedCheckpoints(tb testing.TB) []refusedCheckpoint {
	return []refusedCheckpoint{
		{"negative node delta", "outside [0,", deltaCheckpoint(tb, 0, 0, func(*policy) int64 { return -1 })},
		{"node delta at thrNode", "outside [0,", deltaCheckpoint(tb, 1, 2, func(p *policy) int64 { return p.thrNode })},
		{"bootstrap items out of order", "bootstrap items out of order", bootCheckpoint(tb)},
	}
}

// TestRestoreRefusesImpossibleDeltas: a checkpoint whose site holds a
// negative per-node count, or one at its report threshold, does not
// restore: a report adds exactly thrNode, so a delta at or past it would be
// lost without notice. Nor does one whose bootstrap list is out of order,
// each for its own reason. A delta one below the threshold restores.
func TestRestoreRefusesImpossibleDeltas(t *testing.T) {
	for _, c := range refusedCheckpoints(t) {
		tr, _ := New(goldenCfg)
		if err := tr.Restore(bytes.NewReader(c.data)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: restore error %v, want one saying %q", c.name, err, c.want)
		}
	}
	tr, _ := New(goldenCfg)
	below := deltaCheckpoint(t, 1, 2, func(p *policy) int64 { return p.thrNode - 1 })
	if err := tr.Restore(bytes.NewReader(below)); err != nil {
		t.Fatalf("a delta one below thrNode refused: %v", err)
	}
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

// endsCheckpoint returns the checkpoint of a goldenCfg tracker fed
// endsValues(6000) round robin: past its bootstrap, with both ends of the
// universe in its site stores and in its last leaf, which closes at
// math.MaxUint64.
func endsCheckpoint(tb testing.TB) []byte {
	tr, err := New(goldenCfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i, x := range endsValues(6000) {
		tr.Feed(i%goldenCfg.K, x)
	}
	var buf bytes.Buffer
	if err := tr.Checkpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreUniverseEnds restores endsCheckpoint: it re-encodes bit for
// bit, and every arrival, math.MaxUint64 included, lies in a leaf, each
// node's count plus the sites' unreported deltas being its exact count
// (checkDeltaLaw).
func TestRestoreUniverseEnds(t *testing.T) {
	data := endsCheckpoint(t)
	tr, err := New(goldenCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Restore(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("re-encoding the restored tracker does not reproduce the checkpoint")
	}
	if tr.Bootstrapping() {
		t.Fatal("restored into the bootstrap: nothing of the tree is checked")
	}
	xs := endsValues(6000)
	truth := oracle.NewCounter(xs)
	for _, x := range xs {
		truth.Add(x)
	}
	checkDeltaLaw(t, "restored", tr, truth)
}

// FuzzRestore is the allq counterpart of hh's FuzzRestore, seeded with the
// golden checkpoint, one checkpoint per refusal in refusedCheckpoints and
// endsCheckpoint, which holds math.MaxUint64:
// arbitrary bytes through the checkpoint restore path, raw and re-framed
// with a valid checksum so the policy decoder itself sees the garbage. Must
// error, never panic.
func FuzzRestore(f *testing.F) {
	fresh := func(tb testing.TB) *Tracker {
		tr, err := New(goldenCfg)
		if err != nil {
			tb.Fatal(err)
		}
		return tr
	}
	valid := readGolden(f)
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
		_ = fresh(t).Restore(bytes.NewReader(data))
		var fb bytes.Buffer
		if err := ckpt.WriteFrame(&fb, magic, version, data); err != nil {
			t.Fatal(err)
		}
		_ = fresh(t).Restore(&fb)
	})
}
