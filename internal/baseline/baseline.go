// Package baseline implements the prior approaches the paper compares
// against, so the experiment suite can regenerate the paper's claimed
// improvements:
//
//   - Naive: forward every arrival to the coordinator. Exact answers,
//     Θ(n) communication — the strawman the model exists to beat.
//
//   - Push (CGMR'05-style): each site re-ships its full local summary
//     (a Space-Saving sketch and a GK summary of size Θ(1/ε)) whenever its
//     local count grows by a (1+Θ(ε)) factor — the site-initiated
//     "holistic aggregates" scheme of Cormode, Garofalakis, Muthukrishnan
//     and Rastogi (reference [7]), the best previous bound:
//     O(k/ε² · log n) words. The coordinator answers by summing across the
//     cached per-site summaries.
//
//   - Poll: the coordinator polls all sites for fresh summaries whenever
//     its (cheaply tracked) count estimate grows by a (1+Θ(ε)) factor —
//     the classical pull-based strategy the paper's introduction contrasts
//     with "push"; also O(k/ε² · log n) words.
//
// All three answer both heavy-hitter and quantile queries with error ≤ ε,
// so cost comparisons against the core trackers are apples-to-apples.
package baseline

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"disttrack/internal/oracle"
	"disttrack/internal/summary/gk"
	"disttrack/internal/summary/spacesaving"
	"disttrack/internal/wire"
)

// Tracker is the common interface of the baselines and (by adaptation) the
// core trackers, for the comparison harness.
type Tracker interface {
	Feed(site int, x uint64)
	HeavyHitters(phi float64) []uint64
	Quantile(phi float64) uint64
	Meter() *wire.Meter
}

// ---------------------------------------------------------------------------
// Naive
// ---------------------------------------------------------------------------

// Naive forwards every item to a coordinator that keeps them all in an
// oracle, so its answers are exact.
type Naive struct {
	*oracle.Oracle
	meter wire.Meter
}

// NewNaive returns the forward-everything baseline.
func NewNaive() *Naive { return &Naive{Oracle: oracle.New()} }

// Feed forwards the arrival to the coordinator.
func (t *Naive) Feed(site int, x uint64) {
	t.meter.Up(site, "item", 1)
	t.Add(x)
}

// Meter returns the communication meter.
func (t *Naive) Meter() *wire.Meter { return &t.meter }

// ---------------------------------------------------------------------------
// Shared summary-shipping machinery for Push and Poll
// ---------------------------------------------------------------------------

// siteSummaries is one site's local sketches plus the coordinator's cached
// copy of them.
type siteState struct {
	nj int64
	ss *spacesaving.Sketch
	qs *gk.Summary

	// Coordinator's cache: the per-item estimates and the quantile summary
	// as of the last shipment, plus the count they covered.
	cachedN     int64
	cachedFreqs []spacesaving.Entry
	cachedRanks *cachedGK
}

// cachedGK is a frozen copy of a GK summary usable for rank queries.
type cachedGK struct {
	values []uint64
	ranks  []int64 // midpoint rank estimate of each value
	n      int64
}

func freezeGK(s *gk.Summary) *cachedGK {
	// Sample the summary at its own resolution: 2/eps points bound the
	// shipped size by Θ(1/ε) words regardless of internal tuple count.
	n := s.N()
	c := &cachedGK{n: n}
	if n == 0 {
		return c
	}
	points := int(2.0/s.Eps()) + 1
	for i := 0; i <= points; i++ {
		r := int64(float64(i) * float64(n) / float64(points))
		v := s.QueryRank(r)
		if len(c.values) > 0 && v == c.values[len(c.values)-1] {
			continue
		}
		c.values = append(c.values, v)
		c.ranks = append(c.ranks, r)
	}
	return c
}

// rankEst estimates the number of local items < x with error ≤ 2ε·n.
func (c *cachedGK) rankEst(x uint64) int64 {
	if c.n == 0 || len(c.values) == 0 || x <= c.values[0] {
		return 0
	}
	i := sort.Search(len(c.values), func(i int) bool { return c.values[i] >= x })
	return c.ranks[i-1]
}

func (c *cachedGK) words() int { return 2 * len(c.values) }

// shipper is the common state of Push and Poll.
type shipper struct {
	k     int
	eps   float64
	meter wire.Meter
	sites []*siteState
	n     int64
}

func newShipper(k int, eps float64) (*shipper, error) {
	if k < 1 {
		return nil, fmt.Errorf("baseline: k must be >= 1, got %d", k)
	}
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("baseline: eps must be in (0,1), got %g", eps)
	}
	t := &shipper{k: k, eps: eps}
	for j := 0; j < k; j++ {
		t.sites = append(t.sites, &siteState{
			// Summaries at ε/4 each: ε/4 sketch error + ε/2 staleness < ε.
			ss: spacesaving.NewEps(eps / 4),
			qs: gk.New(eps / 4),
		})
	}
	return t, nil
}

func (t *shipper) observe(site int, x uint64) *siteState {
	if site < 0 || site >= t.k {
		panic(fmt.Sprintf("baseline: site %d out of range [0,%d)", site, t.k))
	}
	s := t.sites[site]
	s.nj++
	t.n++
	s.ss.Add(x)
	s.qs.Add(x)
	return s
}

// ship sends site j's current summaries to the coordinator cache.
func (t *shipper) ship(j int, kind string) {
	s := t.sites[j]
	s.cachedN = s.nj
	s.cachedFreqs = s.ss.Top()
	s.cachedRanks = freezeGK(s.qs)
	t.meter.Up(j, kind, 2*len(s.cachedFreqs)+s.cachedRanks.words()+1)
}

// HeavyHitters merges the cached per-site frequency summaries.
func (t *shipper) HeavyHitters(phi float64) []uint64 {
	freqs := make(map[uint64]int64)
	var n int64
	for _, s := range t.sites {
		n += s.cachedN
		for _, e := range s.cachedFreqs {
			freqs[e.Item] += e.Count
		}
	}
	if n == 0 {
		return nil
	}
	// Cached counts overestimate by ≤ ε/4·n_j each and understate arrivals
	// since the last shipment by ≤ ε/2·n_j: classify at φ − ε/2 of the
	// cached total.
	thresh := (phi - 0.5*t.eps) * float64(n)
	var out []uint64
	for x, c := range freqs {
		if float64(c) >= thresh {
			out = append(out, x)
		}
	}
	slices.Sort(out)
	return out
}

// Quantile answers from the union of cached quantile summaries by binary
// searching the value whose merged rank estimate hits φ·n.
func (t *shipper) Quantile(phi float64) uint64 {
	var n int64
	for _, s := range t.sites {
		n += s.cachedN
	}
	if n == 0 {
		panic("baseline: Quantile before any shipment")
	}
	target := phi * float64(n)
	// Candidate values: all cached summary points.
	var vals []uint64
	for _, s := range t.sites {
		if s.cachedRanks != nil {
			vals = append(vals, s.cachedRanks.values...)
		}
	}
	slices.Sort(vals)
	best, bestErr := vals[0], math.Inf(1)
	for _, v := range vals {
		var r int64
		for _, s := range t.sites {
			r += s.cachedRanks.rankEst(v)
		}
		if err := math.Abs(float64(r) - target); err < bestErr {
			best, bestErr = v, err
		}
	}
	return best
}

// Meter returns the communication meter.
func (t *shipper) Meter() *wire.Meter { return &t.meter }

// TrueTotal returns the exact global count.
func (t *shipper) TrueTotal() int64 { return t.n }

// ---------------------------------------------------------------------------
// Push (site-initiated, CGMR'05 style)
// ---------------------------------------------------------------------------

// Push re-ships a site's summaries whenever its local count grows by a
// (1+ε/2) factor: O(k/ε²·log n) words total.
type Push struct{ shipper }

// NewPush returns the site-initiated summary-shipping baseline.
func NewPush(k int, eps float64) (*Push, error) {
	s, err := newShipper(k, eps)
	if err != nil {
		return nil, err
	}
	return &Push{shipper: *s}, nil
}

// Feed records an arrival and re-ships the site's summaries if its local
// count grew by a (1+ε/2) factor.
func (t *Push) Feed(site int, x uint64) {
	s := t.observe(site, x)
	if float64(s.nj) >= (1+t.eps/2)*float64(s.cachedN) {
		t.ship(site, "summary")
	}
}

// ---------------------------------------------------------------------------
// Poll (coordinator-initiated)
// ---------------------------------------------------------------------------

// Poll tracks the global count with cheap counter messages and polls every
// site for fresh summaries whenever the count grows by a (1+ε/2) factor:
// O(k/ε²·log n) words total.
type Poll struct {
	shipper
	reported []int64 // per-site count last reported via the cheap counter
	cheapEst int64
	lastPoll int64
}

// NewPoll returns the coordinator-initiated polling baseline.
func NewPoll(k int, eps float64) (*Poll, error) {
	s, err := newShipper(k, eps)
	if err != nil {
		return nil, err
	}
	return &Poll{shipper: *s, reported: make([]int64, k)}, nil
}

// Feed records an arrival; sites keep the coordinator's count estimate
// fresh, and the coordinator polls on (1+ε/2)-factor growth.
func (t *Poll) Feed(site int, x uint64) {
	s := t.observe(site, x)
	// Cheap distributed counting at ε/8.
	if float64(s.nj) >= (1+t.eps/8)*float64(t.reported[site]) {
		delta := s.nj - t.reported[site]
		t.reported[site] = s.nj
		t.cheapEst += delta
		t.meter.Up(site, "count", 1)
	}
	if float64(t.cheapEst) >= (1+t.eps/2)*float64(t.lastPoll) {
		t.lastPoll = t.cheapEst
		for j := range t.sites {
			t.meter.Down(j, "poll", 1)
			t.ship(j, "summary")
		}
	}
}
