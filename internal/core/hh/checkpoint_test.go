package hh

import (
	"bytes"
	"math/rand/v2"
	"os"
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
