package hh

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"disttrack/internal/oracle"
	"disttrack/internal/slots"
	"disttrack/internal/summary/spacesaving"
	"disttrack/internal/wire"
)

// msgReplay rebuilds an hh tracker's coordinator state, C.m and every
// C.m_x, and each site's S_j.m from the metered words alone: "item" key
// lists (each key one arrival of it), "freq" pairs, "all" counts and
// "newm" broadcasts. Its tap may run on a feeder goroutine, always under
// the engine's locks, so it reports with Errorf (enginetest.Watch).
type msgReplay struct {
	tb   testing.TB
	tr   *Tracker
	cm   int64
	cmx  map[uint64]int64
	sm   []int64
	msgs int
	base map[string]int64 // meter words when the replay began
	sent map[string]int64 // words of the encodings tapped since
	// freqWords counts "freq" reports by length (1 or 2 words).
	freqWords [3]int
	checked   uint64 // the Version check last compared at
	seeded    bool
}

func newMsgReplay(tb testing.TB, tr *Tracker) *msgReplay {
	return &msgReplay{tb: tb, tr: tr, cmx: map[uint64]int64{}, base: map[string]int64{}, sent: map[string]int64{}}
}

// replayKinds are the kinds whose metered words must equal the encodings
// the tap saw.
var replayKinds = []string{"item", "freq", "all", "newm", "handoff"}

// seed copies the tracker's state into the replay: a restored tracker
// starts from its checkpoint, not from messages.
func (r *msgReplay) seed() {
	tr, p := r.tr, r.tr.p
	r.cm, r.cmx, r.sm = p.coord.cm, maps.Clone(p.coord.cmx), nil
	for _, s := range p.sites {
		r.sm = append(r.sm, s.m)
	}
	r.base, r.sent = map[string]int64{}, map[string]int64{}
	for _, kind := range replayKinds {
		r.base[kind] = tr.Meter().Kind(kind).Words
	}
	r.seeded, r.checked = true, tr.Version()
}

func (r *msgReplay) tap(kind string, j int, words []uint64) {
	r.msgs++
	if r.sent != nil {
		r.sent[kind] += int64(max(1, len(words))) // a message carries at least its type
	}
	var err error
	switch kind {
	case "item":
		var keys []uint64
		keys, err = wire.ReadKeys(words)
		for _, x := range keys {
			r.cmx[x]++
		}
		r.cm += int64(len(keys))
	case "freq":
		var x uint64
		var d int64
		x, d, err = decodeFreq(words)
		want := 2
		if 6+bits.Len64(x)+bits.Len64(uint64(d)) <= 64 {
			want = 1
		}
		if err == nil && len(words) != want {
			err = fmt.Errorf("freq (%d, %d) sent as %d words, want %d", x, d, len(words), want)
		}
		r.freqWords[min(len(words), 2)]++
		r.cmx[x] += d
	case "all":
		var d int64
		d, err = decodeCount(words)
		r.cm += d
	case "newm":
		var m int64
		m, err = decodeCount(words)
		for len(r.sm) <= j {
			r.sm = append(r.sm, 0) // a site that joined
		}
		r.sm[j] = m
	}
	if err != nil {
		r.tb.Errorf("%q from site %d (%#x): %v", kind, j, words, err)
	}
}

// check compares the replay with the tracker at rest, first seeding it
// from the tracker if it has sent nothing yet. The coordinator's state and
// the sites' S_j.m change only in an escalation or a membership change,
// each of which bumps Version, so the maps are compared whenever Version
// moved since the last check.
func (r *msgReplay) check(label string, _ *oracle.Counter) {
	tb, tr := r.tb, r.tr
	tb.Helper()
	if !r.seeded {
		if r.msgs == 0 {
			r.seed() // fresh or restored: nothing sent yet
		}
		r.seeded = true
	}
	checkLag(tb, label, tr)
	if tr.Version() == r.checked {
		return
	}
	r.checked = tr.Version()
	p := tr.p
	if r.cm != p.coord.cm {
		tb.Fatalf("%s: |A|=%d: the messages give C.m %d, the coordinator holds %d", label, tr.TrueTotal(), r.cm, p.coord.cm)
	}
	if !maps.Equal(r.cmx, p.coord.cmx) {
		for x, c := range p.coord.cmx {
			if r.cmx[x] != c {
				tb.Fatalf("%s: |A|=%d: the messages give C.m_x %d for %d, the coordinator holds %d",
					label, tr.TrueTotal(), r.cmx[x], x, c)
			}
		}
		tb.Fatalf("%s: |A|=%d: the messages give %d items C.m_x, the coordinator holds %d",
			label, tr.TrueTotal(), len(r.cmx), len(p.coord.cmx))
	}
	for j, s := range p.sites {
		var m int64
		if j < len(r.sm) {
			m = r.sm[j]
		}
		if m != s.m {
			tb.Fatalf("%s: |A|=%d: site %d adopted S.m %d from the messages, it holds %d", label, tr.TrueTotal(), j, m, s.m)
		}
	}
	for _, kind := range replayKinds {
		if got := tr.Meter().Kind(kind).Words - r.base[kind]; got != r.sent[kind] {
			tb.Fatalf("%s: |A|=%d: metered %d %q words, the encodings sent are %d words long",
				label, tr.TrueTotal(), got, kind, r.sent[kind])
		}
	}
}

// checkLag asserts the law the lazy broadcast keeps outside the bootstrap:
// every site's S_j.m is the coordinator's last broadcast S.m, and
// S.m ≤ C.m < c·S.m, c = 1 + √(2ε/3), so each threshold ε·S_j.m/3k reads m
// at most a factor c stale (plus the unreported Δ(m)).
func checkLag(tb testing.TB, label string, tr *Tracker) {
	tb.Helper()
	if tr.Bootstrapping() {
		return
	}
	p := tr.p
	for j, s := range p.sites {
		if s.m != p.coord.sm {
			tb.Fatalf("%s: |A|=%d: site %d holds S.m %d, the coordinator last broadcast %d", label, tr.TrueTotal(), j, s.m, p.coord.sm)
		}
	}
	c := 1 + math.Sqrt(2*tr.Eps()/3)
	if p.coord.sm > p.coord.cm || float64(p.coord.cm) >= c*float64(p.coord.sm) {
		tb.Fatalf("%s: |A|=%d: C.m %d outside [S.m, c·S.m) = [%d, %.1f)", label, tr.TrueTotal(), p.coord.cm, p.coord.sm, c*float64(p.coord.sm))
	}
}

// TestHandoffMessage: a departing exact site's "handoff" decodes to its
// items with a nonzero local count, sorted, and those counts, and site 0's
// counts after the shrink are its own plus the decoded ones; a site that
// holds nothing sends the one word 0. The metered words are the
// encodings' lengths, both in the bootstrap and once tracking.
func TestHandoffMessage(t *testing.T) {
	for _, n := range []int{60, 5000} {
		tr, err := New(Config{K: 4, Eps: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		var msgs [][]uint64
		var sites []int
		tr.Meter().SetTap(func(kind string, j int, words []uint64) {
			if kind == "handoff" {
				msgs, sites = append(msgs, slices.Clone(words)), append(sites, j)
			}
		})
		for i := range n {
			x := uint64(i % 97)
			if i%11 == 0 {
				x = math.MaxUint64 - uint64(i%3)
			}
			if j := i % 4; j != 3 { // site 3 holds nothing
				tr.Feed(j, x)
			}
		}
		local := func(j int) map[uint64]int64 {
			m := map[uint64]int64{}
			for sl := range tr.p.sites[j].tab.All {
				if sl.Val.local != 0 {
					m[sl.Key] = sl.Val.local
				}
			}
			return m
		}
		before := []map[uint64]int64{local(0), local(1), local(2), local(3)}
		if err := tr.Reconfigure(1); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sites, []int{1, 2, 3}) {
			t.Fatalf("n=%d: handoffs from sites %v, want 1, 2, 3", n, sites)
		}
		want := maps.Clone(before[0])
		var words int64
		for i, m := range msgs {
			keys, counts, err := decodeHandoff(m)
			if err != nil {
				t.Fatalf("n=%d: site %d: %v", n, sites[i], err)
			}
			if !slices.IsSorted(keys) || len(keys) != len(before[sites[i]]) {
				t.Fatalf("n=%d: site %d hands %d items (sorted %t), it held %d", n, sites[i], len(keys), slices.IsSorted(keys), len(before[sites[i]]))
			}
			for k, x := range keys {
				if before[sites[i]][x] != counts[k] {
					t.Fatalf("n=%d: site %d hands %d with count %d, it held %d", n, sites[i], x, counts[k], before[sites[i]][x])
				}
				want[x] += counts[k]
			}
			words += int64(len(m))
		}
		if !slices.Equal(msgs[2], []uint64{0}) {
			t.Fatalf("n=%d: an empty site's handoff is %#x, want the one word 0", n, msgs[2])
		}
		if got := local(0); !maps.Equal(got, want) {
			t.Fatalf("n=%d: site 0 holds %d items after the shrink, the messages rebuild %d (or they differ)", n, len(got), len(want))
		}
		if got := tr.Meter().Kind("handoff"); got.Words != words || got.Msgs != 3 {
			t.Fatalf("n=%d: metered %+v \"handoff\", the encodings are 3 messages of %d words", n, got, words)
		}
	}
}

// TestHandoffCodec round-trips handoffs whose counts need 1 to 64 bits and
// whose keys take the raw and the gap form, and refuses what encodeHandoff
// does not write.
func TestHandoffCodec(t *testing.T) {
	for _, tc := range []struct {
		keys   []uint64
		counts []int64
	}{
		{nil, nil},
		{[]uint64{7}, []int64{1}},
		{[]uint64{0, 1, 2, 3, 4, 5, 6, 7, 8}, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{[]uint64{1, 1 << 60, math.MaxUint64}, []int64{math.MaxInt64, 1, 1 << 40}},
	} {
		words := encodeHandoff(nil, tc.keys, tc.counts)
		keys, counts, err := decodeHandoff(words)
		if err != nil || !slices.Equal(keys, tc.keys) || !slices.Equal(counts, tc.counts) {
			t.Fatalf("decodeHandoff(encodeHandoff(%v, %v)) = %v, %v, %v", tc.keys, tc.counts, keys, counts, err)
		}
	}
	good := encodeHandoff(nil, []uint64{3, 9}, []int64{5, 2}) // [2<<7 | 3, 3, key list tail, packed counts]
	for _, tc := range []struct {
		name  string
		words []uint64
	}{
		{"no words", nil},
		{"empty with a width", []uint64{1}},
		{"empty with a body", []uint64{0, 0}},
		{"width 0", append([]uint64{2 << 7}, good[1:]...)},
		{"width past the largest count", append([]uint64{2<<7 | 4}, good[1:]...)},
		{"count past the words", append([]uint64{1000<<7 | 3}, good[1:]...)},
		{"an item twice", encodeHandoff(nil, []uint64{3, 3}, []int64{5, 2})},
		{"a count of 0", encodeHandoff(nil, []uint64{3, 9}, []int64{5, 0})},
	} {
		if _, _, err := decodeHandoff(tc.words); err == nil {
			t.Errorf("%s: decodeHandoff(%#x) took it", tc.name, tc.words)
		}
	}
}

// siteStateIn returns the paths by which a value of type ty reaches site
// state: a site half, a slots.Table or a spacesaving.Sketch, through
// structs, pointers, arrays, slices and maps. A func, channel or interface
// could hide any of them, so it counts as reaching them.
func siteStateIn(ty reflect.Type) []string {
	siteType := reflect.TypeFor[site]()
	stores := map[string]bool{
		reflect.TypeFor[slots.Table[counts]]().PkgPath(): true,
		reflect.TypeFor[spacesaving.Sketch]().PkgPath():  true,
	}
	var found []string
	seen := map[reflect.Type]bool{}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch {
		case ty == siteType || stores[ty.PkgPath()]:
			found = append(found, fmt.Sprintf("%s (%v)", path, ty))
			return
		case seen[ty]:
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Struct:
			for i := range ty.NumField() {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Pointer:
			walk(path+"*", ty.Elem())
		case reflect.Array, reflect.Slice:
			walk(path+"[]", ty.Elem())
		case reflect.Map:
			walk(path+"[key]", ty.Key())
			walk(path+"[]", ty.Elem())
		case reflect.Func, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
			found = append(found, fmt.Sprintf("%s (%v)", path, ty))
		}
	}
	walk(ty.Name(), ty)
	return found
}

// TestCoordinatorHoldsNoSiteState pins the seam between hh's halves: no
// field of the coordinator half reaches a site's state, so all it knows of
// the sites is what the link's words carry. The walk itself must find the
// site state the policy and a nested decoy hold.
func TestCoordinatorHoldsNoSiteState(t *testing.T) {
	if got := siteStateIn(reflect.TypeFor[coord]()); len(got) != 0 {
		t.Fatalf("the coordinator half reaches site state: %v", got)
	}
	type decoy struct {
		byKey map[uint64][]*spacesaving.Sketch
	}
	for _, ty := range []reflect.Type{reflect.TypeFor[policy](), reflect.TypeFor[decoy](), reflect.TypeFor[[2]map[int]*site]()} {
		if len(siteStateIn(ty)) == 0 {
			t.Fatalf("the walk finds no site state in %v", ty)
		}
	}
}
