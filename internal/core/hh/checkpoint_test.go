package hh

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"os"
	"strings"
	"testing"

	"disttrack/internal/ckpt"
	"disttrack/internal/slots"
	"disttrack/internal/stream"
)

// The golden checkpoint was written by an exact-mode tracker built from
// goldenCfg and fed the first goldenN items of goldenStream, placed by
// goldenAssign, at the commit before rounds stopped collecting exact counts
// and the site store became a slot table. The cut falls mid-round: two of
// three "all" signals are in, and site 2's Δ(m) is one below its threshold.
var goldenCfg = Config{K: 3, Eps: 0.1}

const goldenN = 1536

func goldenStream(n int64) stream.Generator { return stream.Zipf(300, n, 1.3, 43) }

func goldenAssign() stream.Assigner { return stream.RandomAssign(goldenCfg.K, 44) }

// TestRestoreGolden pins the exact-mode checkpoint format: the golden bytes
// restore, re-encode to the same bytes, and the restored tracker keeps
// invariants (2)–(3) after every arrival as it continues under the current
// round rules.
func TestRestoreGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/checkpoint-exact.bin")
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
	if tr.Rounds() != 109 || tr.EstTotal() != 1520 || tr.TrueTotal() != goldenN {
		t.Fatalf("restored rounds %d, C.m %d, n %d; want 109, 1520, %d",
			tr.Rounds(), tr.EstTotal(), tr.TrueTotal(), goldenN)
	}
	if got := []int{tr.SiteSpace(0), tr.SiteSpace(1), tr.SiteSpace(2)}; got[0] != 183 || got[1] != 209 || got[2] != 202 {
		t.Fatalf("restored site space %v, want [183 209 202]", got)
	}
	var again bytes.Buffer
	if err := tr.Checkpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), golden) {
		t.Fatal("re-encoding the restored tracker does not reproduce the golden bytes")
	}

	gen, assign := goldenStream(20000), goldenAssign()
	truth := map[uint64]int64{}
	var n int64
	for i := 0; ; i++ {
		x, ok := gen.Next()
		if !ok {
			break
		}
		j := assign.Site(i, x)
		truth[x]++
		n++
		if i < goldenN {
			continue
		}
		tr.Feed(j, x)
		checkInvariants(t, tr, truth, n, i)
	}
	if tr.Rounds() <= 109 {
		t.Fatalf("restored tracker never started a round of its own (rounds %d)", tr.Rounds())
	}
}

// TestEncodeColumnMatchesMap checks that the slot table's two columns encode
// as ckpt's MapU64I64 encodes the same counters held in maps: nonzero values
// only, ascending keys, item 0 included.
func TestEncodeColumnMatchesMap(t *testing.T) {
	tab := slots.New[counts]()
	local, dx := map[uint64]int64{}, map[uint64]int64{}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 2000; i++ {
		x := rng.Uint64N(300)
		if i%7 == 0 {
			x = rng.Uint64()
		}
		sl := tab.Get(x)
		sl.Val.local++
		sl.Val.dx++
		local[x]++
		dx[x]++
		if i%5 == 0 { // a report
			sl.Val.dx = 0
			delete(dx, x)
		}
	}
	var got, want ckpt.Encoder
	sorted := tab.Sorted()
	encodeColumn(&got, sorted, func(c counts) int64 { return c.local })
	encodeColumn(&got, sorted, func(c counts) int64 { return c.dx })
	want.MapU64I64(local)
	want.MapU64I64(dx)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("encoded slot table differs from the reference maps' encoding")
	}
}

// storeBytePayload checkpoints tr and returns the frame's magic and version
// and its payload with the byte that opens the policy state, the site
// store's, set to b.
func storeBytePayload(tb testing.TB, tr *Tracker, b byte) (magic uint32, version uint16, payload []byte) {
	tb.Helper()
	var buf bytes.Buffer
	if err := tr.Checkpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	magic = binary.LittleEndian.Uint32(buf.Bytes()[0:4])
	version, payload, err := ckpt.ReadFrame(&buf, magic, buf.Len())
	if err != nil {
		tb.Fatal(err)
	}
	var pol ckpt.Encoder
	tr.Quiesce(func() { tr.p.EncodeState(&pol) })
	payload[len(payload)-pol.Len()] = b
	return magic, version, payload
}

// TestRestoreRefusesStoreByte checks that a checkpoint restores only into
// the store it names: byte 2, the removed Misra–Gries sketch's, is refused
// by name, any other byte above 1 as an invalid bool, and 0 (exact) or 1
// (Space-Saving) only into a tracker with that store.
func TestRestoreRefusesStoreByte(t *testing.T) {
	src, err := New(Config{K: 3, Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		src.Feed(i%3, uint64(i%13))
	}
	for _, tc := range []struct {
		b      byte
		sketch bool
		want   string
	}{
		{2, false, "Misra–Gries"},
		{2, true, "Misra–Gries"},
		{3, false, "invalid bool"},
		{255, true, "invalid bool"},
		{1, false, "checkpoint has Sketch true, tracker false"},
		{0, true, "checkpoint has Sketch false, tracker true"},
	} {
		magic, version, payload := storeBytePayload(t, src, tc.b)
		var buf bytes.Buffer
		if err := ckpt.WriteFrame(&buf, magic, version, payload); err != nil {
			t.Fatal(err)
		}
		dst, err := New(Config{K: 3, Eps: 0.1, Sketch: tc.sketch})
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Restore(&buf); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("store byte %d into Sketch %t: restore error %v, want one naming %q", tc.b, tc.sketch, err, tc.want)
		}
	}
}

// splitBroadcastCheckpoint returns the checkpoint of a tracker fed 2,000
// arrivals after edit has changed its state: a frame whose CRC holds, so
// only the policy decoder can refuse it.
func splitBroadcastCheckpoint(tb testing.TB, edit func(p *policy)) []byte {
	tb.Helper()
	tr, err := New(Config{K: 3, Eps: 0.1})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		tr.Feed(i%3, uint64(i%13))
	}
	tr.Quiesce(func() { edit(tr.p) })
	var buf bytes.Buffer
	if err := tr.Checkpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreRefusesSplitBroadcast checks that a restore derives the
// coordinator's broadcast mark from the sites only when they agree: a
// broadcast writes every site, so sites whose S.m differ, or an S.m above
// C.m, name no state the protocol reaches.
func TestRestoreRefusesSplitBroadcast(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(p *policy)
		want string
	}{
		{"sites differ", func(p *policy) { p.sites[2].m-- }, "site 2 holds S.m"},
		{"above C.m", func(p *policy) {
			for _, s := range p.sites {
				s.m = p.coord.cm + 1
			}
		}, "outside [0, C.m"},
	} {
		dst, err := New(Config{K: 3, Eps: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		err = dst.Restore(bytes.NewReader(splitBroadcastCheckpoint(t, tc.edit)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	dst, err := New(Config{K: 3, Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(bytes.NewReader(splitBroadcastCheckpoint(t, func(*policy) {}))); err != nil {
		t.Fatalf("unedited checkpoint: %v", err)
	}
	if dst.p.coord.sm != dst.p.sites[0].m || dst.p.coord.sm == 0 {
		t.Fatalf("restored broadcast mark %d, sites hold %d", dst.p.coord.sm, dst.p.sites[0].m)
	}
}
