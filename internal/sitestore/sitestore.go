// Package sitestore provides the per-site item store used by the quantile
// protocols (§3.1 and §4): either exact (every local item, in a few sorted
// runs behind an unsorted staging buffer) or sketched (a Greenwald–Khanna
// summary — the paper's "implementing with small space" variant). All
// protocol queries — ranks, range counts, separator samples — go through the
// Store interface, so the tracking logic is identical in both modes.
//
// It also holds what the rank protocols share beside their stores, the
// bootstrap list, the rank reply and the split: see "What the rank kinds
// share" in docs/architecture.md.
package sitestore

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"unsafe"

	"disttrack/internal/summary/gk"
)

// Store answers rank-structure queries over a site's local items. Every
// uint64 is an item, and math.MaxUint64 is also the universe's inclusive
// end: RankOf there counts every local item, and a range [lo, hi) with
// hi = math.MaxUint64 is [lo, math.MaxUint64], so the last interval of a
// partition holds that value too. The protocols never bound a range below
// by math.MaxUint64. A read may
// reorganise its own store (the exact store sorts its staged arrivals first),
// so a read needs the same exclusive access as an insert: one goroutine at a
// time per store. The trackers give it that through the engine's site locks:
// nothing touches a store without its site's lock.
type Store interface {
	// Insert records one local item.
	Insert(x uint64)
	// InsertBatch records a batch of local items given in arrival order,
	// equivalent to calling Insert for each in sequence (order matters for
	// the GK summary, whose state is insertion-order dependent). The store
	// does not retain xs.
	InsertBatch(xs []uint64)
	// RankOf returns (an estimate of) the number of local items < x, and
	// every local item at x = math.MaxUint64.
	RankOf(x uint64) int64
	// CountRange returns (an estimate of) the number of local items in
	// [lo, hi), the end closed at hi = math.MaxUint64.
	CountRange(lo, hi uint64) int64
	// Separators appends to dst local items cutting [lo, hi) into chunks of
	// ~step local items each (rank error at most step plus the sketch error).
	Separators(dst []uint64, lo, hi uint64, step int64) []uint64
	// Space returns the number of stored entries (for the space experiments).
	Space() int
}

// NewExact returns a Store holding every local item.
func NewExact() Store { return &exactStore{} }

// exactStore keeps every item, in sorted runs plus a staging buffer. The
// protocols insert on every arrival but query only when a threshold fires
// (a split, a relocation, a round change), so the layout is write-optimised
// twice over. Arrivals are copied unsorted into pend; the first query after
// them, or pend reaching pendCap, settles it: one radix sort, then the sorted
// items become a new rightmost run that is merged leftwards, binary-counter
// style, while the run before it is less than twice as large. That leaves at
// most log2(n) runs of at least halving sizes, costs an amortised O(log n)
// sequential moves per item at 8 bytes each, and makes a rank one binary
// search per run. Every answer depends only on the items held. Run memory
// is recycled through runPool: a settle takes its output run from the pool
// and hands back the runs it merged away, so steady-state ingest neither
// allocates nor zeroes it. Each run's capacity is the power of two at or
// above its length, so the runs hold at most twice their items in capacity.
type exactStore struct {
	runs [][]uint64 // each sorted, from runPool; len(runs[i]) >= 2*len(runs[i+1])
	pend []uint64   // unsorted arrivals not yet settled; len < pendCap between calls
	n    int        // items held, runs and pend together
}

// pendCap bounds the staging buffer at 32 KiB. pend grows with use up to it,
// so a store that is queried often never holds that much.
const pendCap = 4096

func (s *exactStore) Insert(x uint64) { s.InsertBatch([]uint64{x}) }

func (s *exactStore) InsertBatch(xs []uint64) {
	s.n += len(xs)
	for len(xs) > 0 {
		k := min(len(xs), pendCap-len(s.pend))
		// Grow by doubling, as append would, but never past pendCap.
		if need := len(s.pend) + k; need > cap(s.pend) {
			grown := make([]uint64, len(s.pend), min(max(need, 2*cap(s.pend)), pendCap))
			copy(grown, s.pend)
			s.pend = grown
		}
		s.pend = append(s.pend, xs[:k]...)
		xs = xs[k:]
		if len(s.pend) == pendCap {
			s.settle()
		}
	}
}

// settle sorts pend into the runs: it becomes the rightmost run, after
// merging into it every run that would otherwise be less than twice its size.
func (s *exactStore) settle() {
	if len(s.pend) == 0 {
		return
	}
	from, total := len(s.runs), len(s.pend)
	for from > 0 && len(s.runs[from-1]) < 2*total {
		from--
		total += len(s.runs[from])
	}
	s.collapse(from, total)
}

// collapse replaces runs[from:] and pend, total items together, by one run,
// and empties pend. It takes the result from runPool, sorts pend into its
// right end and merges the runs into it right to left, smallest first, so a
// cascade over geometrically growing runs moves fewer than 2*total items.
// Each run merged away goes back to the pool.
func (s *exactStore) collapse(from, total int) {
	out := getRun(total)
	at := total - len(s.pend)
	sortInto(out[at:], s.pend)
	s.pend = s.pend[:0]
	for i := len(s.runs) - 1; i >= from; i-- {
		at = mergeLeft(out, at, s.runs[i])
		putRun(s.runs[i])
		s.runs[i] = nil
	}
	s.runs = append(s.runs[:from], out)
}

// runPool recycles the buffers of the exact stores' runs and of Separators'
// merges, which are as large as the items they hold: runPool[c] holds
// buffers of capacity exactly 1<<c, so any buffer of a class fits any
// request the class serves, with at most half of it slack. A pool rather
// than a free list, because the garbage collector empties it: a burst of
// settles leaves no memory behind for good. It stores a pointer to a
// buffer's first item, which the pool holds without allocating.
var runPool [bits.UintSize]sync.Pool

// getRun returns a buffer of n > 0 items whose capacity is the power of two
// at or above n. Its items are not zeroed: they may be a recycled run's.
func getRun(n int) []uint64 {
	c := bits.Len(uint(n - 1))
	if p, ok := runPool[c].Get().(*uint64); ok {
		return unsafe.Slice(p, 1<<c)[:n]
	}
	return make([]uint64, n, 1<<c)
}

// putRun hands buf, from getRun, back to runPool. The caller must hold no
// other reference to it. A buffer whose capacity is not a power of two is
// left to the garbage collector: getRun would read past its end.
func putRun(buf []uint64) {
	c := bits.Len(uint(cap(buf) - 1))
	if cap(buf) == 0 || cap(buf) != 1<<c {
		return
	}
	runPool[c].Put(unsafe.SliceData(buf))
}

// radixMin is the length from which sortInto radix-sorts; below it a
// comparison sort is cheaper than the histogram and its prefix sums.
const radixMin = 128

// digitCounts holds the radix sort's eight 256-entry histograms. They come
// from a pool rather than the stack: an 8 KiB frame would grow the stack of
// every site goroutine that ever settles a store, and a process with
// hundreds of quantile and allq tenants keeps those stacks.
var digitCounts = sync.Pool{New: func() any { return new([8][256]uint32) }}

// sortInto writes the keys of src, sorted, into dst (as long as src), and
// leaves src in no particular order. From radixMin keys up it is an LSD radix
// sort with 8-bit digits that ping-pongs between the two slices: one pass
// counts all eight digits, a digit that is the same in every key is skipped
// (perturbed keys v<<24|s vary in about four of their eight bytes), and each
// remaining digit is one stable scatter from one slice to the other.
func sortInto(dst, src []uint64) {
	if len(src) < radixMin {
		slices.Sort(src)
		copy(dst, src)
		return
	}
	counts := digitCounts.Get().(*[8][256]uint32)
	defer digitCounts.Put(counts)
	*counts = [8][256]uint32{}
	for _, x := range src {
		counts[0][byte(x)]++
		counts[1][byte(x>>8)]++
		counts[2][byte(x>>16)]++
		counts[3][byte(x>>24)]++
		counts[4][byte(x>>32)]++
		counts[5][byte(x>>40)]++
		counts[6][byte(x>>48)]++
		counts[7][byte(x>>56)]++
	}
	from, to, passes := src, dst[:len(src)], 0
	for d := range counts {
		c := &counts[d]
		shift := uint(8 * d)
		if c[byte(from[0]>>shift)] == uint32(len(from)) {
			continue // every key has this digit
		}
		var sum uint32
		for i, n := range c {
			c[i] = sum
			sum += n
		}
		for _, x := range from {
			k := byte(x >> shift)
			to[c[k]] = x
			c[k]++
		}
		from, to = to, from
		passes++
	}
	if passes%2 == 0 { // the sorted keys ended in src
		copy(dst, src)
	}
}

// mergeLeft merges run with the sorted out[at:] into out[at-len(run):] and
// returns that start. The write position never passes the read position in
// out: the gap between them is the number of run items still to place. The
// loop body has no data-dependent branch: which side advances is a
// conditional move, so unpredictable comparisons cost no mispredictions.
func mergeLeft(out []uint64, at int, run []uint64) int {
	start := at - len(run)
	w, i, j := start, 0, at
	for i < len(run) && j < len(out) {
		a, b := run[i], out[j]
		v, di := a, 1
		if b < a {
			v, di = b, 0
		}
		out[w] = v
		i += di
		j += 1 - di
		w++
	}
	copy(out[w:], run[i:])
	return start
}

// items returns every item in sorted order as one slice the store keeps
// using (callers must not modify it), compacting the store to a single run.
// The slice must not outlive the caller's hold on the store: the next
// settle may hand it back to runPool, and another store may then reuse it.
func (s *exactStore) items() []uint64 {
	if len(s.runs) > 1 || len(s.pend) > 0 {
		s.collapse(0, s.n)
	}
	if len(s.runs) == 0 {
		return nil
	}
	return s.runs[0]
}

func (s *exactStore) RankOf(x uint64) int64 {
	if x == math.MaxUint64 {
		return int64(s.n)
	}
	s.settle()
	r := 0
	for _, run := range s.runs {
		i, _ := slices.BinarySearch(run, x)
		r += i
	}
	return int64(r)
}

func (s *exactStore) CountRange(lo, hi uint64) int64 {
	if hi <= lo {
		return 0
	}
	return s.RankOf(hi) - s.RankOf(lo)
}

// restrict appends to parts the non-empty restrictions of the runs to
// [lo, hi), and returns them with how many items they hold together. A
// range with hi <= lo is empty, as in CountRange, even at hi =
// math.MaxUint64.
func (s *exactStore) restrict(parts [][]uint64, lo, hi uint64) ([][]uint64, int64) {
	if hi <= lo {
		return parts, 0
	}
	var total int64
	for _, run := range s.runs {
		a, _ := slices.BinarySearch(run, lo)
		b := len(run)
		if hi < math.MaxUint64 {
			b, _ = slices.BinarySearch(run, hi)
		}
		if b > a {
			parts = append(parts, run[a:b])
			total += int64(b - a)
		}
	}
	return parts, total
}

// Separators appends the items of ranks step-1, 2*step-1, ... within the
// restriction of the store to [lo, hi): it cuts that interval's items into
// chunks of step items and appends the item closing each chunk. The store
// keeps its runs. The largest restricted run is read in place; the others,
// when there are several, are merged into a scratch buffer from runPool;
// and each separator is selected from the two sorted slices by a binary
// search.
func (s *exactStore) Separators(dst []uint64, lo, hi uint64, step int64) []uint64 {
	if step <= 0 {
		panic("sitestore: Separators with non-positive step")
	}
	s.settle()
	// Runs at least halve in size, so 32 restrictions cover 2^32 items
	// without a heap allocation.
	var partsBuf [32][]uint64
	parts, total := s.restrict(partsBuf[:0], lo, hi)
	if total == 0 {
		return dst
	}
	slices.SortFunc(parts, func(a, b []uint64) int { return len(b) - len(a) })
	var rest []uint64
	switch len(parts) {
	case 1:
	case 2:
		rest = parts[1]
	default:
		rest = getRun(int(total) - len(parts[0]))
		defer putRun(rest)
		mergeParts(rest, parts[1:])
	}
	dst = slices.Grow(dst, int(total/step))
	for r := step - 1; r < total; r += step {
		dst = append(dst, selectRank(parts[0], rest, int(r)))
	}
	return dst
}

// mergeParts merges the sorted parts, largest first, into out, which is
// exactly as long as they are together. It merges them smallest first, as
// collapse does: fewer than 2*len(out) moves when the parts halve in size,
// as the runs they restrict do.
func mergeParts(out []uint64, parts [][]uint64) {
	at := len(out)
	for i := len(parts) - 1; i >= 0; i-- {
		at = mergeLeft(out, at, parts[i])
	}
}

// selectRank returns the item of rank r, counted from 0, among the items of
// the sorted slices a and b together. The first r+1 items of their merge
// are some i items of a and r+1-i of b, and i is the first count at which
// taking one more item of a would skip a smaller item of b.
func selectRank(a, b []uint64, r int) uint64 {
	lo, hi := max(0, r+1-len(b)), min(r+1, len(a))
	i := lo + sort.Search(hi-lo, func(d int) bool {
		i := lo + d
		j := r + 1 - i
		return j == 0 || i == len(a) || a[i] >= b[j-1]
	})
	j := r + 1 - i
	switch {
	case i == 0:
		return b[j-1]
	case j == 0:
		return a[i-1]
	default:
		return max(a[i-1], b[j-1])
	}
}

func (s *exactStore) Space() int { return s.n }

// NewGK returns a Store answering from a GK summary with rank error eps·n_j.
func NewGK(eps float64) Store { return &gkStore{sum: gk.New(eps)} }

type gkStore struct{ sum *gk.Summary }

func (s *gkStore) Insert(x uint64) { s.sum.Add(x) }

func (s *gkStore) InsertBatch(xs []uint64) {
	// GK summary state depends on insertion order; keep arrival order so
	// batched and sequential feeding answer identically.
	for _, x := range xs {
		s.sum.Add(x)
	}
}
func (s *gkStore) RankOf(x uint64) int64 {
	if x == math.MaxUint64 {
		return s.sum.N()
	}
	return s.sum.RankEst(x)
}

func (s *gkStore) CountRange(lo, hi uint64) int64 {
	c := s.RankOf(hi) - s.RankOf(lo)
	if c < 0 {
		c = 0
	}
	return c
}

func (s *gkStore) Separators(dst []uint64, lo, hi uint64, step int64) []uint64 {
	r0, r1 := s.RankOf(lo), s.RankOf(hi)
	for r := r0 + step; r <= r1; r += step {
		v := s.sum.QueryRank(r)
		// The summary's error can push the returned value outside [lo, hi);
		// clamp so merged separator lists stay inside the interval.
		if v < lo {
			v = lo
		}
		if hi > lo && v >= hi && hi < math.MaxUint64 {
			v = hi - 1
		}
		dst = append(dst, v)
	}
	return dst
}

func (s *gkStore) Space() int { return s.sum.Space() }

// Drain folds src's contents into dst, emptying nothing (src is simply
// abandoned by the caller — site removal hands the departing site's stream
// to a surviving site). For an exact source the transfer is lossless: its
// sorted item dump is inserted as one batch. For a GK source the summary's
// tuples are expanded — each tuple contributes its value with the tuple's
// G-weight — which preserves the total count exactly and every rank to
// within the source summary's own error bound; the destination absorbs that
// bound on top of its own, which the protocols cover by restarting their
// round after a membership change.
func Drain(src, dst Store) {
	switch st := src.(type) {
	case *exactStore:
		dst.InsertBatch(st.items())
	case *gkStore:
		state := st.sum.State()
		var batch []uint64
		for _, t := range state.Tuples {
			for i := int64(0); i < t.G; i++ {
				batch = append(batch, t.V)
			}
			if len(batch) >= 1<<14 {
				dst.InsertBatch(batch)
				batch = batch[:0]
			}
		}
		dst.InsertBatch(batch)
	default:
		panic("sitestore: cannot drain unknown store type")
	}
}
