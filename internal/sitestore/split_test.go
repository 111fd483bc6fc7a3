package sitestore

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"slices"
	"testing"

	"disttrack/internal/wire"
)

// runSplit cuts [lo, hi) over sts, each site reading the messages as the
// partition [lo, hi) alone, and returns what Cut returns with the meter.
func runSplit(sts []Store, lo, hi uint64) (y uint64, left, right int64, ok bool, m *wire.Meter) {
	m = &wire.Meter{}
	y, left, right, ok = Split{
		Lo: lo, Hi: hi, Req: []uint64{7},
		Sites:  len(sts),
		Store:  func(j int) Store { return sts[j] },
		Named:  func([]uint64) (uint64, uint64) { return lo, hi },
		Placed: func(apply []uint64) (uint64, uint64) { return lo, apply[0] },
	}.Cut(m, &SplitScratch{})
	return y, left, right, ok, m
}

// TestSplitCut checks the median-of-medians cut on per-site loads built to
// defeat a cruder one: three sites with a handful of items far left of a
// fourth that holds nearly all of them (an unweighted median of the
// medians cuts among the handful), a site holding nothing, a lone site, and
// uniform loads. Each half holds between N/4 − k and 3N/4 + k of the N
// items in [lo, hi), each half's count is what the stores hold there, and
// every message has its length: "split-req", "split-apply" and
// "split-counts" 1 word a site, "split-resp" 1 (both halves of the pair fit
// a word in this interval).
func TestSplitCut(t *testing.T) {
	const lo, hi = 1 << 20, 1 << 41
	span := func(n int, from, step uint64) []uint64 {
		xs := make([]uint64, n)
		for i := range xs {
			xs[i] = from + uint64(i)*step
		}
		return xs
	}
	for _, tc := range []struct {
		name  string
		loads [][]uint64
	}{
		{"one heavy site", [][]uint64{span(5, lo, 1), span(5, lo+10, 1), span(5, lo+20, 1), span(3000, lo+1000, 7)}},
		{"heavy site first", [][]uint64{span(3000, lo, 7), span(4, lo+30000, 1), span(4, lo+30010, 1)}},
		{"one empty site", [][]uint64{nil, span(500, lo, 3), span(700, lo+1, 3)}},
		{"lone site", [][]uint64{span(101, lo, 1)}},
		{"uniform", [][]uint64{randomItems(2000, 31), randomItems(2000, 32), randomItems(2000, 33), randomItems(2000, 34)}},
	} {
		sts := make([]Store, len(tc.loads))
		for j, xs := range tc.loads {
			sts[j] = NewExact()
			fill(sts[j], xs)
			fill(sts[j], []uint64{lo - 1, hi}) // outside the interval
		}
		y, left, right, ok, m := runSplit(sts, lo, hi)
		if !ok {
			t.Fatalf("%s: no cut", tc.name)
		}
		var wantL, wantR int64
		for _, st := range sts {
			wantL += st.CountRange(lo, y)
			wantR += st.CountRange(y, hi)
		}
		if left != wantL || right != wantR {
			t.Fatalf("%s: cut at %d gives halves %d and %d, the stores hold %d and %d", tc.name, y, left, right, wantL, wantR)
		}
		n, k := float64(left+right), float64(len(sts))
		for _, h := range []int64{left, right} {
			if float64(h) < n/4-k || float64(h) > 3*n/4+k {
				t.Fatalf("%s: halves %d and %d of %.0f: one is outside [N/4 − k, 3N/4 + k]", tc.name, left, right, n)
			}
		}
		for _, kind := range []string{"split-req", "split-resp", "split-apply", "split-counts"} {
			if c := m.Kind(kind); c.Msgs != int64(len(sts)) || c.Words != int64(len(sts)) {
				t.Fatalf("%s: %q took %d messages of %d words, want %d of 1", tc.name, kind, c.Msgs, c.Words, len(sts))
			}
		}
	}
}

// TestSplitCutReusesScratch: once a SplitScratch has served a cut over k
// sites, the next cut over them allocates nothing: no message, count or
// median list, and no separator list for the one local median
// EncodeSplitResp reads.
func TestSplitCutReusesScratch(t *testing.T) {
	const lo, hi = 1 << 20, 1 << 41
	sts := make([]Store, 4)
	for j := range sts {
		sts[j] = NewExact()
		sts[j].InsertBatch(randomItems(3000, int64(40+j)))
	}
	var sc SplitScratch
	m := &wire.Meter{}
	cut := func() {
		Split{
			Lo: lo, Hi: hi, Req: []uint64{7},
			Sites:  len(sts),
			Store:  func(j int) Store { return sts[j] },
			Named:  func([]uint64) (uint64, uint64) { return lo, hi },
			Placed: func(apply []uint64) (uint64, uint64) { return lo, apply[0] },
		}.Cut(m, &sc)
	}
	cut()
	if got := testing.AllocsPerRun(20, cut); got != 0 {
		t.Fatalf("a cut over %d sites with a used scratch allocates %.0f times, want none", len(sts), got)
	}
}

// TestSplitCutDefeated: with no item in the interval, or every median at
// its closed end math.MaxUint64, there is no cut strictly inside, and no
// "split-apply" is sent.
func TestSplitCutDefeated(t *testing.T) {
	empty, top := NewExact(), NewExact()
	fill(empty, []uint64{1, 2, 3})
	fill(top, []uint64{math.MaxUint64, math.MaxUint64, 5})
	for name, sts := range map[string][]Store{"empty": {empty, empty}, "ties at the end": {top, empty}} {
		if _, _, _, ok, m := runSplit(sts, 10, math.MaxUint64); ok || m.Kind("split-apply").Msgs != 0 {
			t.Fatalf("%s: cut %v, %d \"split-apply\" sent", name, ok, m.Kind("split-apply").Msgs)
		}
	}
}

// dipStore answers CountRange(lo, y) for y short of its hi above
// CountRange(lo, hi), as a GK store's non-monotone rank estimate may.
type dipStore struct {
	Store
	hi uint64
}

func (d dipStore) CountRange(lo, hi uint64) int64 {
	if hi != d.hi {
		return d.Store.CountRange(lo, hi) + 1000
	}
	return d.Store.CountRange(lo, hi)
}

// TestSplitCountClamp: a site whose count left of the cut exceeds the n_j
// it sent answers a_j = n_j, so the coordinator's n_j − a_j for the right
// half is never negative, and DecodeSplitCount refuses a count over n_j.
func TestSplitCountClamp(t *testing.T) {
	const lo, hi = 100, 1 << 30
	ex := NewExact()
	fill(ex, randomItems(50, 41))
	fill(ex, []uint64{200, 300, 400})
	dip := dipStore{Store: ex, hi: hi}
	n := dip.CountRange(lo, hi)
	if a, err := DecodeSplitCount(EncodeSplitCount(nil, dip, lo, 250, n), n); err != nil || a != n {
		t.Fatalf("a dipping site answers a_j = %d (%v), want its n_j = %d", a, err, n)
	}
	if _, err := DecodeSplitCount([]uint64{uint64(n) + 1}, n); !errors.Is(err, ErrBadSplit) {
		t.Fatalf("DecodeSplitCount of n_j + 1 = %v, want ErrBadSplit", err)
	}
	other := NewExact()
	fill(other, randomItems(500, 42))
	if _, left, right, ok, _ := runSplit([]Store{dip, other}, lo, hi); !ok || left < 0 || right < 0 {
		t.Fatalf("cut %v with halves %d and %d", ok, left, right)
	}
}

// respWords is the length of a "split-resp" for n items in [lo, hi): 1
// when n = 0 or 6 + bits(n) + bits(hi − lo) ≤ 64, else 2.
func respWords(n int64, lo, hi uint64) int {
	if n > 0 && 6+bits.Len64(uint64(n))+bits.Len64(hi-lo) > 64 {
		return 2
	}
	return 1
}

// TestSplitRespCodec pins "split-resp" at its edges: nothing held, a median
// at each end of the interval, an interval that closes at math.MaxUint64
// (two words), and the refusals: no word, three words, n = 0 beside a
// median, a median past hi, two words where one fits.
func TestSplitRespCodec(t *testing.T) {
	for _, tc := range []struct {
		med    uint64
		n      int64
		lo, hi uint64
	}{
		{0, 0, 5, 9},
		{5, 1, 5, 9},
		{9, 3, 5, 9},
		{1 << 40, 1 << 20, 1 << 39, 1 << 41},
		{math.MaxUint64, 2, 0, math.MaxUint64},
		{7, math.MaxInt64, 7, 8},
	} {
		words := appendSplitResp(nil, tc.med, tc.n, tc.lo, tc.hi)
		if len(words) != respWords(tc.n, tc.lo, tc.hi) {
			t.Fatalf("%+v: %d words, want %d", tc, len(words), respWords(tc.n, tc.lo, tc.hi))
		}
		med, n, err := DecodeSplitResp(words, tc.lo, tc.hi)
		if err != nil || med != tc.med || n != tc.n {
			t.Fatalf("%+v: decoded median %d, n %d, %v", tc, med, n, err)
		}
	}
	for name, words := range map[string][]uint64{
		"none":           nil,
		"three":          {1, 2, 3},
		"n=0 beside med": wire.AppendPair(nil, 0, 3, 3),
		"med past hi":    wire.AppendPair(nil, 4, 5, 5),
		"two that fit":   {4, 3},
	} {
		if _, _, err := DecodeSplitResp(words, 10, 14); err == nil {
			t.Fatalf("%s: decoded", name)
		}
	}
}

// FuzzDecodeSplitResp: a count and a median offset read from the input
// round-trip through "split-resp" for an interval read from it too; the same
// input read as reply words never panics, and what decodes from it
// re-encodes to the very words: the decoder takes only what the encoder
// writes.
func FuzzDecodeSplitResp(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(1), []byte{})
	f.Add(uint64(5), uint64(3), uint64(100), uint64(10), []byte{0x83, 1, 0, 0, 0, 0, 0, 0})
	f.Add(uint64(1<<40), uint64(math.MaxUint64), uint64(0), uint64(math.MaxUint64), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, n, off, lo, span uint64, data []byte) {
		span = max(span, 1)
		hi := lo + min(span, math.MaxUint64-lo)
		if hi == lo {
			lo--
		}
		n &= math.MaxInt64
		if hi-lo < math.MaxUint64 {
			off %= hi - lo + 1
		}
		if n == 0 {
			off = 0
		}
		words := appendSplitResp(nil, lo+off, int64(n), lo, hi)
		med, got, err := DecodeSplitResp(words, lo, hi)
		if err != nil || got != int64(n) || n > 0 && med != lo+off {
			t.Fatalf("n %d, median %d in [%d, %d): decoded %d, %d, %v", n, lo+off, lo, hi, got, med, err)
		}
		words = make([]uint64, len(data)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		med, got, err = DecodeSplitResp(words, lo, hi)
		if err != nil {
			return
		}
		if again := appendSplitResp(nil, med, got, lo, hi); !slices.Equal(again, words) {
			t.Fatalf("%#x decodes to %d, %d, which re-encode to %#x", words, got, med, again)
		}
	})
}
