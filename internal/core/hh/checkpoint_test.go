package hh

import (
	"bytes"
	"os"
	"testing"

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
