// Package stream provides the workloads of the distributed streaming model:
// finite item generators over a universe U = {0, ..., u-1}, policies for
// assigning each arrival to one of k sites, and the "symbolic perturbation"
// the paper invokes to make items distinct for the quantile protocols.
//
// Every randomized component takes an explicit seed, so all workloads are
// reproducible; the experiment harness and the tests rely on this.
package stream

import (
	"fmt"
	"math/rand"
)

// Item is a stream element drawn from the universe.
type Item = uint64

// Generator produces a finite stream of items.
type Generator interface {
	// Next returns the next item; ok is false when the stream is exhausted.
	Next() (item Item, ok bool)
}

// Assigner decides which of the k sites observes the i-th arrival.
type Assigner interface {
	// Site returns the site index in [0, k) for arrival number i (0-based)
	// of the given item.
	Site(i int, item Item) int
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

// slice is a generator over a fixed sequence.
type slice struct {
	items []Item
	pos   int
}

// FromSlice returns a generator replaying items in order.
func FromSlice(items []Item) Generator { return &slice{items: items} }

func (s *slice) Next() (Item, bool) {
	if s.pos >= len(s.items) {
		return 0, false
	}
	x := s.items[s.pos]
	s.pos++
	return x, true
}

// Uniform returns n items drawn uniformly from [0, u).
func Uniform(u, n int64, seed int64) Generator {
	if u <= 0 || n < 0 {
		panic("stream: Uniform requires u > 0 and n >= 0")
	}
	rng := rand.New(rand.NewSource(seed))
	return &funcGen{n: n, f: func() Item { return uint64(rng.Int63n(u)) }}
}

// Zipf returns n items from [0, u) with Zipfian frequencies of skew s > 1.
// Item 0 is the most frequent.
func Zipf(u, n int64, s float64, seed int64) Generator {
	if u <= 0 || n < 0 {
		panic("stream: Zipf requires u > 0 and n >= 0")
	}
	if s <= 1 {
		panic("stream: Zipf requires skew s > 1")
	}
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(u-1))
	return &funcGen{n: n, f: z.Uint64}
}

// Sequential returns the items 0, 1, 2, ..., n-1 in order (all distinct).
func Sequential(n int64) Generator {
	i := int64(0)
	return &funcGen{n: n, f: func() Item {
		x := uint64(i)
		i++
		return x
	}}
}

// HotSet returns n items where each arrival is one of the h "hot" items
// (0..h-1, chosen uniformly) with probability p, and otherwise uniform over
// the cold range [h, u).
func HotSet(u, n int64, h int, p float64, seed int64) Generator {
	if int64(h) >= u || h <= 0 || p < 0 || p > 1 {
		panic("stream: invalid HotSet parameters")
	}
	rng := rand.New(rand.NewSource(seed))
	return &funcGen{n: n, f: func() Item {
		if rng.Float64() < p {
			return uint64(rng.Intn(h))
		}
		return uint64(int64(h) + rng.Int63n(u-int64(h)))
	}}
}

type funcGen struct {
	n    int64
	done int64
	f    func() Item
}

func (g *funcGen) Next() (Item, bool) {
	if g.done >= g.n {
		return 0, false
	}
	g.done++
	return g.f(), true
}

// Concat chains generators one after another.
func Concat(gens ...Generator) Generator { return &concat{gens: gens} }

type concat struct {
	gens []Generator
	pos  int
}

func (c *concat) Next() (Item, bool) {
	for c.pos < len(c.gens) {
		if x, ok := c.gens[c.pos].Next(); ok {
			return x, true
		}
		c.pos++
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// Symbolic perturbation (distinctness for the quantile protocols)
// ---------------------------------------------------------------------------

// PerturbBits is the number of low-order bits Perturb appends to each item
// to break ties, giving 2^24 distinct keys per original value.
const PerturbBits = 24

// Perturb wraps gen so every emitted key is distinct: the original value is
// shifted left by PerturbBits and a per-value sequence number occupies the
// low bits. This is the paper's "symbolic perturbation": quantile ranks over
// perturbed keys equal item-level ranks with ties broken by arrival order.
// Unperturb recovers the original value. Next panics on a value at or above
// 2^(64−PerturbBits), whose shift would wrap, and on the 2^PerturbBits-th
// repeat of a value.
func Perturb(gen Generator) Generator {
	return &perturber{gen: gen, seq: make(map[Item]uint32)}
}

type perturber struct {
	gen Generator
	seq map[Item]uint32
}

func (p *perturber) Next() (Item, bool) {
	x, ok := p.gen.Next()
	if !ok {
		return 0, false
	}
	if x >= 1<<(64-PerturbBits) {
		panic(fmt.Sprintf("stream: item %d does not fit in %d bits and would wrap when perturbed", x, 64-PerturbBits))
	}
	s := p.seq[x]
	p.seq[x] = s + 1
	if s >= 1<<PerturbBits {
		panic(fmt.Sprintf("stream: more than 2^%d occurrences of item %d", PerturbBits, x))
	}
	return x<<PerturbBits | uint64(s), true
}

// Unperturb recovers the original value from a perturbed key.
func Unperturb(key Item) Item { return key >> PerturbBits }

// PerturbValue maps an original value to the smallest perturbed key carrying
// it; [PerturbValue(v), PerturbValue(v+1)) is the key range of value v.
func PerturbValue(v Item) Item { return v << PerturbBits }

// ---------------------------------------------------------------------------
// Assigners
// ---------------------------------------------------------------------------

// RoundRobin assigns arrival i to site i mod k.
func RoundRobin(k int) Assigner { return roundRobin(k) }

type roundRobin int

func (k roundRobin) Site(i int, _ Item) int { return i % int(k) }

// RandomAssign assigns each arrival to a site uniformly at random.
func RandomAssign(k int, seed int64) Assigner {
	return &randAssign{k: k, rng: rand.New(rand.NewSource(seed))}
}

type randAssign struct {
	k   int
	rng *rand.Rand
}

func (a *randAssign) Site(int, Item) int { return a.rng.Intn(a.k) }

// WeightedAssign assigns arrivals to sites with the given probability
// weights (not necessarily normalized), modelling skewed observation rates.
func WeightedAssign(weights []float64, seed int64) Assigner {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("stream: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("stream: weights sum to zero")
	}
	cum := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cum[i] = acc
	}
	return &weighted{cum: cum, rng: rand.New(rand.NewSource(seed))}
}

type weighted struct {
	cum []float64
	rng *rand.Rand
}

func (a *weighted) Site(int, Item) int {
	r := a.rng.Float64()
	for i, c := range a.cum {
		if r < c {
			return i
		}
	}
	return len(a.cum) - 1
}

// SingleSite sends every arrival to one site — the degenerate (and
// adversarially easy-to-get-wrong) placement.
func SingleSite(site int) Assigner { return singleSite(site) }

type singleSite int

func (s singleSite) Site(int, Item) int { return int(s) }

// ByHash assigns by a fixed hash of the item value, so all occurrences of a
// value land on the same site (the sharded-ingest pattern).
func ByHash(k int) Assigner { return byHash(k) }

type byHash int

func (k byHash) Site(_ int, x Item) int {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return int(x % uint64(k))
}
