package wire

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

func TestMeterTotals(t *testing.T) {
	var m Meter
	m.Up(0, "delta", 2)
	m.Up(1, "delta", 2)
	m.Down(0, "ack", 1)
	got := m.Total()
	if got.Msgs != 3 || got.Words != 5 {
		t.Fatalf("Total = %+v, want {3 5}", got)
	}
	if up := m.UpCost(); up.Msgs != 2 || up.Words != 4 {
		t.Fatalf("UpCost = %+v, want {2 4}", up)
	}
	if down := m.DownCost(); down.Msgs != 1 || down.Words != 1 {
		t.Fatalf("DownCost = %+v, want {1 1}", down)
	}
}

func TestMeterMinimumWordPerMessage(t *testing.T) {
	var m Meter
	m.Up(0, "ping", 0)
	m.Up(0, "ping", -5)
	if got := m.Total(); got.Words != 2 {
		t.Fatalf("zero/negative-size messages should cost 1 word each, got %d", got.Words)
	}
}

func TestMeterBroadcast(t *testing.T) {
	var m Meter
	m.Broadcast("round", 3, 5)
	got := m.Total()
	if got.Msgs != 5 || got.Words != 15 {
		t.Fatalf("Broadcast(3 words, k=5) = %+v, want {5 15}", got)
	}
	if d := m.DownCost(); d != got {
		t.Fatalf("broadcast must be all downstream, got down=%+v total=%+v", d, got)
	}
}

func TestMeterByKindAndSite(t *testing.T) {
	var m Meter
	m.Up(2, "delta", 1)
	m.Up(2, "delta", 1)
	m.Up(0, "count", 4)
	if c := m.Kind("delta"); c.Msgs != 2 || c.Words != 2 {
		t.Fatalf("Kind(delta) = %+v", c)
	}
	if c := m.Kind("count"); c.Msgs != 1 || c.Words != 4 {
		t.Fatalf("Kind(count) = %+v", c)
	}
	if c := m.Kind("nope"); c != (Cost{}) {
		t.Fatalf("unknown kind should be zero, got %+v", c)
	}
	if c := m.Site(2); c.Msgs != 2 {
		t.Fatalf("Site(2) = %+v", c)
	}
	if c := m.Site(99); c != (Cost{}) {
		t.Fatalf("out-of-range site should be zero, got %+v", c)
	}
	kinds := m.Kinds()
	if len(kinds) != 2 || kinds[0] != "count" || kinds[1] != "delta" {
		t.Fatalf("Kinds = %v, want sorted [count delta]", kinds)
	}
}

func TestMeterByTenant(t *testing.T) {
	var m Meter
	m.UpTenant("acme", 0, "tbatch", 10)
	m.UpTenant("acme", 1, "tbatch", 5)
	m.DownTenant("beta", 0, "tack", 0) // floors at one word
	if c := m.Tenant("acme"); c.Msgs != 2 || c.Words != 15 {
		t.Fatalf("Tenant(acme) = %+v, want {2 15}", c)
	}
	if c := m.Tenant("beta"); c.Msgs != 1 || c.Words != 1 {
		t.Fatalf("Tenant(beta) = %+v, want {1 1}", c)
	}
	if c := m.Tenant("nope"); c != (Cost{}) {
		t.Fatalf("unknown tenant should be zero, got %+v", c)
	}
	// Tenant recording still feeds the directional and per-kind totals.
	if up := m.UpCost(); up.Msgs != 2 || up.Words != 15 {
		t.Fatalf("UpCost = %+v, want {2 15}", up)
	}
	if c := m.Kind("tack"); c.Msgs != 1 {
		t.Fatalf("Kind(tack) = %+v", c)
	}
	ts := m.Tenants()
	if len(ts) != 2 || ts[0] != "acme" || ts[1] != "beta" {
		t.Fatalf("Tenants = %v, want sorted [acme beta]", ts)
	}
	m.Reset()
	if len(m.Tenants()) != 0 || m.Tenant("acme") != (Cost{}) {
		t.Fatal("Reset should clear tenant attribution")
	}
}

func TestMeterReset(t *testing.T) {
	var m Meter
	m.Up(0, "x", 7)
	m.Reset()
	if got := m.Total(); got != (Cost{}) {
		t.Fatalf("after Reset, Total = %+v, want zero", got)
	}
	if len(m.Kinds()) != 0 {
		t.Fatalf("after Reset, kinds = %v, want none", m.Kinds())
	}
}

func TestCostAdd(t *testing.T) {
	a := Cost{Msgs: 1, Words: 2}
	b := Cost{Msgs: 10, Words: 20}
	if got := a.Add(b); got.Msgs != 11 || got.Words != 22 {
		t.Fatalf("Add = %+v", got)
	}
}

func TestMeterString(t *testing.T) {
	var m Meter
	m.Up(0, "delta", 2)
	s := m.String()
	for _, want := range []string{"total:", "delta"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

// TestAppendBits round-trips bitmaps across word boundaries, appended after
// other words, and reads bits past the end as clear.
func TestAppendBits(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		set := func(i int) bool { return i%3 == 0 || i == n-1 }
		words := AppendBits([]uint64{7}, n, set)
		if want := 1 + (n+63)/64; len(words) != want {
			t.Fatalf("n %d: %d words, want %d", n, len(words), want)
		}
		for i := range n + 70 {
			if got := Bit(words[1:], i); got != (i < n && set(i)) {
				t.Fatalf("n %d: bit %d reads %t", n, i, got)
			}
		}
	}
}

// TestAppendPacked round-trips values at every width from 1 to 64, appended
// after other words, with values that straddle word boundaries and the
// widest value at each width, and reads values past the end as zero.
func TestAppendPacked(t *testing.T) {
	for w := 1; w <= 64; w++ {
		for _, n := range []int{0, 1, 63, 64, 65} {
			mask := ^uint64(0) >> (64 - w)
			val := func(i int) uint64 {
				if i%2 == 0 {
					return mask // every bit of the width set
				}
				return uint64(i) * 0x9e3779b97f4a7c15 & mask
			}
			words := AppendPacked([]uint64{7}, n, w, val)
			if want := 1 + (n*w+63)/64; len(words) != want || words[0] != 7 {
				t.Fatalf("w %d n %d: %d words (first %d), want %d after the 7", w, n, len(words), words[0], want)
			}
			for i := range n {
				if got := Unpack(words[1:], w, i); got != val(i) {
					t.Fatalf("w %d n %d: value %d reads %#x, want %#x", w, n, i, got, val(i))
				}
			}
			if w < 64 && n > 0 {
				if got := Unpack(words[1:], w, n+(64/w)+1); got != 0 {
					t.Fatalf("w %d n %d: a value past the end reads %#x", w, n, got)
				}
			}
		}
	}
}

// TestAppendPair: a pair is one word exactly when 6 + bits(a) + bits(bmax)
// ≤ 64, and two words otherwise, and both forms round-trip; a one-word
// width over 58, an a narrower than its width, and a length other than one
// or two words are refused.
func TestAppendPair(t *testing.T) {
	for _, tc := range []struct {
		a, b, bmax uint64
		words      int
	}{
		{0, 0, 0, 1},
		{1, 0, 0, 1},
		{5, 9, 100, 1},
		{1<<30 - 1, 1<<28 - 1, 1<<28 - 1, 1}, // 6 + 30 + 28 = 64
		{1<<30 - 1, 1 << 28, 1 << 28, 2},     // 6 + 30 + 29 = 65
		{1<<58 - 1, 0, 0, 1},
		{1 << 58, 0, 0, 2},
		{3, 1, 1 << 63, 2}, // the bound, not b, decides
		{1 << 63, 1 << 63, 1 << 63, 2},
	} {
		words := AppendPair([]uint64{7}, tc.a, tc.b, tc.bmax)
		if len(words) != 1+tc.words || words[0] != 7 {
			t.Fatalf("AppendPair(%d, %d, %d) = %d words after the 7, want %d", tc.a, tc.b, tc.bmax, len(words)-1, tc.words)
		}
		if a, b, err := ReadPair(words[1:]); err != nil || a != tc.a || b != tc.b {
			t.Fatalf("ReadPair(AppendPair(%d, %d)) = %d, %d, %v", tc.a, tc.b, a, b, err)
		}
	}
	for _, words := range [][]uint64{nil, {59}, {63}, {3 | 1<<6}, {1}, {1, 2, 3}} {
		if _, _, err := ReadPair(words); err == nil {
			t.Fatalf("ReadPair(%#x) took a malformed message", words)
		}
	}
}

// TestMeterMsgTap: UpMsg and DownMsg meter a payload's length, at least one
// word, and show every message to the tap, which Reset keeps.
func TestMeterMsgTap(t *testing.T) {
	var m Meter
	var seen []string
	m.SetTap(func(kind string, site int, words []uint64) {
		seen = append(seen, fmt.Sprintf("%s/%d/%d", kind, site, len(words)))
	})
	m.UpMsg(1, "reply", []uint64{1, 2, 3})
	m.DownMsg(0, "req", nil)
	if got := m.Total(); got.Msgs != 2 || got.Words != 4 {
		t.Fatalf("Total = %+v, want {2 4}", got)
	}
	if m.Kind("reply").Words != 3 || m.Kind("req").Words != 1 || m.Site(1).Words != 3 {
		t.Fatalf("per-kind or per-site words wrong: %s", m.String())
	}
	m.Reset()
	m.Up(0, "plain", 2) // not a payload message: the tap does not see it
	m.DownMsg(2, "again", []uint64{9})
	if want := []string{"reply/1/3", "req/0/0", "again/2/1"}; !slices.Equal(seen, want) {
		t.Fatalf("tap saw %v, want %v", seen, want)
	}
}
