// Package quantile implements the paper's §3.1 protocol for continuously
// tracking a single φ-quantile (the median, or any 0 ≤ φ ≤ 1) of a
// distributed stream with total communication O(k/ε · log n) (Theorem 3.1).
//
// # Protocol
//
// The tracking period is divided into O(log n) rounds; a round ends when |A|
// has doubled. Within a round (m = |A| at round start):
//
//   - The coordinator maintains a set of separator items cutting the
//     universe into intervals whose true counts stay within [Θ(εm), εm/2].
//     Sites report interval arrivals in batches of εm/8k; when an interval's
//     count reaches 3εm/8 the coordinator splits it via a localized O(k)
//     rebuild (the paper's "rebuilding applied to the interval I").
//
//   - The coordinator keeps an approximate quantile M plus drift counters —
//     the paper's Δ(L) and Δ(R), generalized from the median to arbitrary φ
//     as a rank-drift trigger: relocate M when the estimated
//     |rank(M) − φ·|A|| reaches εm/2. Relocation collects exact
//     rank/total (O(k)), then probes O(1) neighbouring separators (O(k)
//     each) to land within εm/4 of the target — possible because every
//     interval holds at most εm/2 items.
//
//   - That estimate moves only with the signed drift (1−φ)·Δ(L) − φ·Δ(R),
//     so a site reports its unreported arrivals left and right of M (L_j,
//     R_j, one "drift" message) when |(1−φ)·L_j − φ·R_j| reaches εm/8k,
//     not when either side alone does, as the paper's batches would. Every
//     site's unreported signed drift stays below εm/8k, so the estimate is
//     within k·εm/8k = εm/8 of the truth, as with the paper's rule; and one
//     arrival moves the signed drift by at most max(φ, 1−φ) ≤ 1, so a report
//     still needs εm/8k arrivals at its site and no stream costs more
//     reports than the paper's rule.
//
//   - Each relocation requires Ω(εm) fresh arrivals, so there are O(1/ε)
//     relocations and O(1/ε) splits per round: O(k/ε) words per round and
//     O(k/ε · log n) total.
//
// At every instant each tracked M satisfies |rank(M) − φ|A|| ≤ ε|A|.
//
// # Multiple quantiles
//
// The interval machinery is φ-independent, so one tracker can follow any
// number of quantiles at once (Config.Phis): the separators, splits and
// count baselines are shared, and only the per-φ drift counters and
// relocations are paid per quantile — cheaper than |Phis| independent
// trackers, with the same per-φ guarantee. (For very many quantiles use
// package allq, whose cost is independent of the number of queries.)
//
// # Distinctness
//
// As in the paper, items are assumed distinct ("symbolic perturbation");
// wrap inputs with stream.Perturb when values repeat. Massive ties collapse
// separators and void the interval-size invariant (the implementation stays
// safe but the ε guarantee degrades); CannotSplit reports such events.
//
// # Modes
//
// ModeExact stores all local items at each site, in a few sorted runs.
// ModeSketch stores a Greenwald–Khanna summary per site (space
// O(1/ε·log εn)), answering the same queries with an extra, budgeted,
// ε/32-relative error — the paper's "implementing with small space" remark.
//
// # Concurrency
//
// The ingest surface (Feed, FeedLocalBatch, Quiesce, Version) is owned by
// the shared core/engine skeleton; this package supplies only the §3.1
// algorithm as an engine policy. See package engine for the concurrency
// contract.
package quantile

import (
	"fmt"
	"math"
	"slices"

	"disttrack/internal/core/engine"
	"disttrack/internal/sitestore"
)

// Mode selects the per-site item store.
type Mode int

const (
	// ModeExact keeps all local items at each site.
	ModeExact Mode = iota
	// ModeSketch keeps a GK quantile summary at each site.
	ModeSketch
)

// gkEpsFraction: in ModeSketch each site's GK summary uses ε/gkEpsFraction,
// keeping all sketch-induced rank errors within the protocol's slack.
const gkEpsFraction = 32.0

// Config parameterizes a Tracker.
type Config struct {
	K    int       // number of sites, >= 1
	Eps  float64   // approximation error, in (0, 1)
	Phi  float64   // the quantile to track (used when Phis is empty)
	Phis []float64 // multiple quantiles sharing one tracker (optional)
	Mode Mode      // per-site store; default ModeExact

	// BatchDivisor overrides the 8 in the εm/8k site report batches (0
	// means 8). Smaller values batch more aggressively (less communication,
	// more staleness); below 8 the worst-case error analysis no longer
	// closes. Exists for the A4 ablation.
	BatchDivisor float64
}

// quantState is the coordinator's per-tracked-quantile state.
type quantState struct {
	phi   float64
	reach float64 // 1/max(φ, 1−φ): the fewest arrivals that move the signed drift by one
	m0    uint64  // M — the tracked approximate φ-quantile
	lBase int64   // exact rank(M) at last relocation
	tBase int64   // exact |A| at last relocation
	dL    int64   // reported arrivals < M since last relocation
	dR    int64   // reported arrivals >= M since last relocation
}

// Tracker continuously tracks one or more φ-quantiles of the union of k
// site-local streams. The embedded engine provides the whole ingest and
// quiescence surface; the methods defined here are the §3.1 queries.
type Tracker struct {
	*engine.Engine
	p *policy
}

// policy is the §3.1 algorithm as an engine policy: all methods run under
// the engine's locks (see engine.Policy), so no field needs locking of its
// own.
type policy struct {
	eng  *engine.Engine
	cfg  Config
	phis []float64

	sites []*site

	// Bootstrap: until |A| reaches bootTarget every arrival is forwarded into
	// boot, in arrival order until a read sorts it (see bootKeys).
	boot       []uint64
	bootSorted bool

	// Round state (§3.1). m is |A| at round start and fixes all thresholds.
	m         int64
	seps      []uint64 // sorted separator items; intervals are the gaps
	ivCount   []int64  // per-interval coordinator underestimates
	totEst    int64    // coordinator underestimate of |A|
	thrIv     int64    // site batch size for interval reports: εm/8k
	thrTot    int64    // site batch size for total reports: εm/8k
	thrLR     int64    // site batch size for drift reports: εm/8k
	splitAt   int64    // coordinator split trigger: 3εm/8
	driftTrig float64  // relocation trigger: εm/2

	qs []quantState // one entry per tracked quantile

	// Statistics for experiments.
	rounds      int
	relocations int
	splits      int
	cannotSplit int
}

// site is the per-site protocol state, guarded by the engine's site locks.
type site struct {
	st       store
	ivDelta  []int64    // unreported arrivals per interval
	totDelta int64      // unreported arrivals (total)
	drift    [][2]int64 // per-quantile unreported arrivals [left, right] of M

	// quiet counts down the arrivals that cannot bring any drift pair to
	// thrLR (see driftDue); ApplyRun checks the pairs only once it is spent.
	// Resets only lower a pair's drift, so it stays valid until newRound
	// changes thrLR.
	quiet int64
}

// absDrift is the size of the signed drift |(1−φ)·L − φ·R| of a site's
// unreported arrivals d = [L, R] left and right of M, written L − φ·(L+R):
// one multiply-add, no division. The explicit conversion rounds the product,
// so no architecture fuses it and every caller computes the same value.
func absDrift(phi float64, d [2]int64) float64 {
	return math.Abs(float64(d[0]) - float64(phi*float64(d[0]+d[1])))
}

// driftDue reports whether any of site s's drift pairs is due for a report.
// If none is, it sets s.quiet to the arrivals that provably cannot make one
// due: one arrival moves φ's signed drift by at most max(φ, 1−φ), so a pair
// at drift v needs (thrLR − v)/max(φ, 1−φ) more. One arrival of margin
// absorbs the rounding of the products.
func (p *policy) driftDue(s *site) bool {
	thr := float64(p.thrLR)
	quiet := int64(math.MaxInt64)
	for qi := range p.qs {
		q := &p.qs[qi]
		v := absDrift(q.phi, s.drift[qi])
		if v >= thr {
			return true
		}
		quiet = min(quiet, int64((thr-v)*q.reach)-1)
	}
	s.quiet = quiet
	return false
}

// New validates cfg and returns a Tracker.
func New(cfg Config) (*Tracker, error) {
	phis := cfg.Phis
	if len(phis) == 0 {
		phis = []float64{cfg.Phi}
	}
	p := &policy{cfg: cfg, phis: phis}
	eng, err := engine.New(engine.Config{Name: "quantile", K: cfg.K, Eps: cfg.Eps}, p)
	if err != nil {
		return nil, err
	}
	for _, phi := range phis {
		if phi < 0 || phi > 1 {
			return nil, fmt.Errorf("quantile: every phi must be in [0,1], got %g", phi)
		}
	}
	p.eng = eng
	p.qs = make([]quantState, len(phis))
	for i, phi := range phis {
		p.qs[i].phi = phi
		p.qs[i].reach = 1 / max(phi, 1-phi)
	}
	for j := 0; j < cfg.K; j++ {
		var st store
		if cfg.Mode == ModeSketch {
			st = newGKStore(cfg.Eps / gkEpsFraction)
		} else {
			st = newExactStore()
		}
		p.sites = append(p.sites, &site{st: st, drift: make([][2]int64, len(phis))})
	}
	return &Tracker{Engine: eng, p: p}, nil
}

// ApplyBoot records one bootstrap arrival in site j's item store.
func (p *policy) ApplyBoot(siteID int, x uint64) {
	p.sites[siteID].st.Insert(x)
}

// ApplyRun applies the site-local fast path to a prefix of xs: counters are
// updated per item in arrival order until the first threshold crossing
// (inclusive), then the consumed prefix is bulk-inserted into the store
// once. The round state it reads (seps, thresholds, m0) is stable: it only
// changes after a cascade's Engine.All, while every site lock is held.
func (p *policy) ApplyRun(siteID int, xs []uint64) (consumed int, crossed bool) {
	s := p.sites[siteID]
	ivIdx := -1
	var ivLo, ivHi uint64 // cached bounds of interval ivIdx: [ivLo, ivHi)
	consumed = len(xs)
	for i, x := range xs {
		// Run-group the interval lookup: consecutive arrivals that stay in
		// the same interval skip the binary search entirely.
		if ivIdx < 0 || x < ivLo || x >= ivHi {
			ivIdx = p.ivIndex(x)
			ivLo, ivHi = p.ivBounds(ivIdx)
		}
		s.ivDelta[ivIdx]++
		s.totDelta++
		for qi := range p.qs {
			side := 0
			if x >= p.qs[qi].m0 {
				side = 1
			}
			s.drift[qi][side]++
		}
		s.quiet--
		if s.ivDelta[ivIdx] >= p.thrIv || s.totDelta >= p.thrTot || (s.quiet < 0 && p.driftDue(s)) {
			consumed, crossed = i+1, true
			break
		}
	}
	s.st.InsertBatch(xs[:consumed])
	return consumed, crossed
}

// OnEscalate re-checks the batch thresholds under the protocol lock and
// runs the communication the protocol triggers — interval reports and
// splits, total reports and round changes, drift reports and relocations —
// with all wire.Meter accounting. A drift report fires on the signed drift
// (absDrift) and carries both sides, L_j and R_j, in one 2-word "drift"
// message. The reports ("iv", "tot", "drift") touch only site siteID and
// coordinator counters; split, newRound and relocate consult every site and
// call Engine.All first.
func (p *policy) OnEscalate(siteID int, x uint64) {
	s := p.sites[siteID]
	meter := p.eng.Meter()

	// Interval report → possible split.
	iv := p.ivIndex(x)
	if s.ivDelta[iv] >= p.thrIv {
		meter.Up(siteID, "iv", 2)
		p.ivCount[iv] += s.ivDelta[iv]
		s.ivDelta[iv] = 0
		if p.ivCount[iv] >= p.splitAt {
			p.split(iv)
		}
	}

	// Total report → possible round change.
	if s.totDelta >= p.thrTot {
		meter.Up(siteID, "tot", 1)
		p.totEst += s.totDelta
		s.totDelta = 0
		if p.totEst >= 2*p.m {
			p.newRound()
			return
		}
	}

	// Per-quantile drift reports → possible relocations.
	for qi := range p.qs {
		q := &p.qs[qi]
		d := s.drift[qi]
		if absDrift(q.phi, d) < float64(p.thrLR) {
			continue
		}
		meter.Up(siteID, "drift", 2)
		q.dL += d[0]
		q.dR += d[1]
		s.drift[qi] = [2]int64{}
		p.maybeRelocate(qi)
	}
}

// OnBootEscalate forwards one bootstrap arrival into the coordinator's
// exact list; the bootstrap ends once |A| reaches bootTarget.
func (p *policy) OnBootEscalate(_ int, x uint64) (done bool) {
	p.boot = append(p.boot, x)
	p.bootSorted = false
	return p.eng.TrueTotal() >= p.bootTarget()
}

// bootKeys returns the forwarded bootstrap arrivals in ascending order,
// sorting them in place on the first read after an arrival. Like every
// query it runs under the quiescent lock set.
func (p *policy) bootKeys() []uint64 {
	if !p.bootSorted {
		slices.Sort(p.boot)
		p.bootSorted = true
	}
	return p.boot
}

// OnBootDone builds the first round.
func (p *policy) OnBootDone() { p.newRound() }

// OnReconfigure implements engine.Policy: resize the per-site
// state to newK sites and rebuild the round from scratch — every §3.1
// threshold (εm/8k batches, split trigger, drift trigger) depends on k, so a
// membership change is handled exactly like a round boundary. Runs under the
// quiescent lock set, after the engine has folded the removed sites' arrival
// counts into site 0.
func (p *policy) OnReconfigure(oldK, newK int) {
	if newK < oldK {
		// Hand each departing site's items to site 0 (exact: lossless;
		// sketch: count-exact within the source summary's own error — see
		// sitestore.Drain), mirroring the engine's count fold so rank
		// queries keep seeing every arrival.
		s0 := p.sites[0]
		for j := newK; j < oldK; j++ {
			s := p.sites[j]
			p.eng.Meter().Up(j, "handoff", s.st.Space())
			sitestore.Drain(s.st, s0.st)
		}
		p.sites = p.sites[:newK]
	} else {
		for j := oldK; j < newK; j++ {
			var st store
			if p.cfg.Mode == ModeSketch {
				st = newGKStore(p.cfg.Eps / gkEpsFraction)
			} else {
				st = newExactStore()
			}
			p.sites = append(p.sites, &site{st: st, drift: make([][2]int64, len(p.phis))})
		}
	}
	p.cfg.K = newK // bootTarget follows the new k
	if !p.eng.Bootstrapping() {
		p.newRound()
	}
}

// ivIndex returns the interval index of x: the number of separators <= x.
// It is an upper-bound binary search written out, with no closure to call
// per probe: it runs for every arrival that leaves its predecessor's interval.
func (p *policy) ivIndex(x uint64) int {
	lo, hi := 0, len(p.seps)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p.seps[m] > x {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// maybeRelocate fires the paper's |Δ(L) − Δ(R)| ≥ εm/2 trigger, generalized
// to arbitrary φ as a rank-drift condition.
func (p *policy) maybeRelocate(qi int) {
	q := &p.qs[qi]
	estRank := float64(q.lBase + q.dL)
	estTot := float64(q.tBase + q.dL + q.dR)
	if math.Abs(estRank-q.phi*estTot) >= p.driftTrig {
		p.relocate(qi)
	}
}

// Quantile returns the first tracked quantile (Config.Phi, or Phis[0]).
// During bootstrap it is exact over the items the coordinator has received;
// under concurrency an arrival becomes visible only once its escalation has
// run, so a query racing the very first arrivals may see none yet (it then
// returns 0). It panics before any item has arrived.
func (t *Tracker) Quantile() uint64 { return t.QuantileAt(0) }

// QuantileAt returns the i-th tracked quantile (index into Phis).
func (t *Tracker) QuantileAt(i int) uint64 {
	p := t.p
	if t.Bootstrapping() {
		// Index against what was actually forwarded: TrueTotal counts
		// arrivals on the fast path, but a concurrent arrival reaches the
		// bootstrap list only in its escalation — a quiescent query may run
		// in between.
		keys := p.bootKeys()
		n := int64(len(keys))
		if n == 0 {
			if t.TrueTotal() == 0 {
				panic("quantile: Quantile before any arrival")
			}
			return 0 // every arrival so far is still in flight to its escalation
		}
		idx := int64(p.phis[i] * float64(n))
		if idx >= n {
			idx = n - 1
		}
		return keys[idx]
	}
	return p.qs[i].m0
}

// QuantileOf returns the tracked quantile for the given φ, which must be
// one of the configured Phis.
func (t *Tracker) QuantileOf(phi float64) uint64 {
	for i, p := range t.p.phis {
		if p == phi {
			return t.QuantileAt(i)
		}
	}
	panic(fmt.Sprintf("quantile: phi %g is not tracked (configured: %v)", phi, t.p.phis))
}

// Quantiles returns all tracked quantiles, parallel to Phis().
func (t *Tracker) Quantiles() []uint64 {
	out := make([]uint64, len(t.p.phis))
	for i := range t.p.phis {
		out[i] = t.QuantileAt(i)
	}
	return out
}

// EstTotal returns the coordinator's estimate of |A|.
func (t *Tracker) EstTotal() int64 {
	if t.Bootstrapping() {
		return t.TrueTotal()
	}
	return t.p.totEst
}

// Phi returns the first tracked quantile's φ; Phis all of them.
func (t *Tracker) Phi() float64    { return t.p.phis[0] }
func (t *Tracker) Phis() []float64 { return append([]float64(nil), t.p.phis...) }

// Rounds, Relocations and Splits return protocol statistics.
func (t *Tracker) Rounds() int      { return t.p.rounds }
func (t *Tracker) Relocations() int { return t.p.relocations }
func (t *Tracker) Splits() int      { return t.p.splits }

// CannotSplit counts split attempts defeated by ties (see the distinctness
// note in the package documentation).
func (t *Tracker) CannotSplit() int { return t.p.cannotSplit }

// Intervals returns the current number of coordinator intervals.
func (t *Tracker) Intervals() int { return len(t.p.seps) + 1 }

// IntervalTrueCounts returns the exact current count of every interval,
// computed from ground truth — used by the invariant tests, not part of the
// protocol.
func (t *Tracker) IntervalTrueCounts() []int64 {
	p := t.p
	counts := make([]int64, len(p.seps)+1)
	for _, s := range p.sites {
		prev := uint64(0)
		for i, sep := range p.seps {
			counts[i] += s.localTrueCount(prev, sep)
			prev = sep
		}
		counts[len(p.seps)] += s.localTrueCount(prev, math.MaxUint64)
	}
	return counts
}

// localTrueCount is exact in ModeExact and sketch-estimated in ModeSketch.
func (s *site) localTrueCount(lo, hi uint64) int64 { return s.st.CountRange(lo, hi) }

// SiteSpace returns the number of stored entries at site j.
func (t *Tracker) SiteSpace(j int) int { return t.p.sites[j].st.Space() }

// RoundM returns m, the |A| snapshot the current round's thresholds use.
func (t *Tracker) RoundM() int64 { return t.p.m }
