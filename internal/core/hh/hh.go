// Package hh implements the paper's §2.1 protocol for continuously tracking
// the φ-heavy hitters of a distributed stream with total communication
// O(k/ε · log n) (Theorem 2.1).
//
// # Protocol
//
// Each site S_j keeps S_j.m — the global count the coordinator last
// broadcast — plus counters Δ(m) and Δ(m_x) for the arrivals since it last
// reported. When either counter reaches the threshold ε·S_j.m/3k the site
// sends the accumulated increment to the coordinator ("all" messages for
// Δ(m), "freq" messages for Δ(m_x)). After k "all" signals the coordinator
// broadcasts its own count C.m, starting a new round. Each "all" report
// carries exactly the threshold, so a round adds ε·S.m/3 to C.m: the count
// grows by a (1+ε/3) factor per round, so there are O(log n / ε) rounds of k
// "all" messages each, and no more "freq" than "all" messages —
// O(k/ε · log n) total.
//
// The paper ends each round by collecting every site's exact count. This
// implementation does not: every site's unreported Δ(m) stays below its
// threshold, so C.m already satisfies invariant (3), and the sequence of
// round-start counts depends only on k, ε and the bootstrap count — never
// on how arrivals interleave across sites (docs/architecture.md,
// "Deviations from the paper").
//
// The coordinator's estimates satisfy the paper's invariants (2) and (3):
//
//	m_x − εm/3 < C.m_x ≤ m_x        m − εm/3 < C.m ≤ m
//
// so C.m_x/C.m is within ε/2 of m_x/m at all times.
//
// # Classification threshold
//
// The paper's equation (1) declares x a heavy hitter iff C.m_x/C.m ≥ φ+ε/2,
// but under invariants (2)–(3) a true heavy hitter's ratio can be as low as
// φ−ε/3, so that printed threshold would produce false negatives. Any
// threshold in [φ−ε/2, φ−ε/3] yields the ε-approximation guarantee in both
// directions; this implementation uses φ − 0.4ε (see "Deviations from the
// paper" in docs/architecture.md).
//
// # Modes
//
// In ModeExact each site stores its exact local frequencies (O(distinct)
// space) in a slot table, one slot per item. In ModeSketch each site stores
// a Space-Saving sketch with error ε/8 (the "implementing with small space"
// remark), keeping site space at O(1/ε) counters while preserving the
// guarantees with adjusted constants.
//
// # Concurrency
//
// The ingest surface (Feed, FeedLocalBatch, Quiesce, Version) is owned by
// the shared core/engine skeleton; this package supplies only the §2.1
// algorithm as an engine policy. See package engine for the concurrency
// contract.
package hh

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"disttrack/internal/core/engine"
	"disttrack/internal/slots"
	"disttrack/internal/summary/mg"
	"disttrack/internal/summary/spacesaving"
)

// Mode selects the per-site frequency store.
type Mode int

const (
	// ModeExact keeps exact local frequencies at each site.
	ModeExact Mode = iota
	// ModeSketch keeps a Space-Saving sketch at each site (space O(1/ε)).
	ModeSketch
	// ModeMGSketch keeps a Misra–Gries summary at each site instead of
	// Space-Saving (the A2 ablation). MG's estimates are underestimates
	// and non-monotone (counters decay), so reporting is lazier; since
	// every reported delta is still a lower bound on the true increment,
	// C.m_x remains an underestimate and the contract holds with slightly
	// different slack — the ablation measures the difference.
	ModeMGSketch
)

// classifySlack positions the classification threshold at φ − classifySlack·ε,
// inside the valid interval [φ−ε/2, φ−ε/3] (docs/architecture.md,
// "Deviations from the paper").
const classifySlack = 0.4

// sketchEpsFraction is the fraction of ε given to the per-site sketch in
// ModeSketch; the remainder absorbs reporting staleness.
const sketchEpsFraction = 8.0

// Config parameterizes a Tracker.
type Config struct {
	K    int     // number of sites, >= 1
	Eps  float64 // approximation error, in (0, 1)
	Mode Mode    // per-site store; default ModeExact

	// ThresholdDivisor overrides the 3 in the paper's ε·S_j.m/3k reporting
	// threshold (0 means 3). Larger values report more eagerly (more
	// communication, smaller staleness); values below 3 void the paper's
	// worst-case invariants (2)–(3). Exists for the A1 ablation.
	ThresholdDivisor float64
}

// Tracker tracks heavy hitters across K sites. The embedded engine provides
// the whole ingest and quiescence surface (Feed, FeedLocalBatch, Quiesce,
// Version, Meter, TrueTotal, SiteCount, Bootstrapping);
// the methods defined here are the §2.1 queries.
type Tracker struct {
	*engine.Engine
	p *policy
}

// policy is the §2.1 algorithm as an engine policy: all methods run under
// the engine's locks (see engine.Policy), so no field needs locking of its
// own.
type policy struct {
	eng *engine.Engine
	cfg Config

	sites []*site

	// Coordinator state, touched only on the slow path.
	cm         int64            // C.m — underestimate of the global count
	cmx        map[uint64]int64 // C.m_x — underestimates of global frequencies
	allSignals int              // "all" messages in the current round
	rounds     int              // completed rounds (for experiments)
}

// site is the per-site protocol state, guarded by the engine's site locks.
// Every arrival is counted in dm (and, in exact mode, in its slot's dx) until
// a report carries it, so C.m + Σ_j Δ_j(m) = m at all times.
type site struct {
	m  int64 // S_j.m — global count at last broadcast
	dm int64 // Δ(m) — arrivals since the last "all" report

	// ModeExact state: one slot per item, holding m_{x,j} and Δ(m_x).
	tab slots.Table[counts]

	// ModeSketch / ModeMGSketch state.
	ss      *spacesaving.Sketch
	mgs     *mg.Summary
	lastRep map[uint64]int64 // last sketch estimate reported per item
}

// New validates cfg and returns a Tracker.
func New(cfg Config) (*Tracker, error) {
	p := &policy{cfg: cfg, cmx: make(map[uint64]int64)}
	eng, err := engine.New(engine.Config{Name: "hh", K: cfg.K, Eps: cfg.Eps}, p)
	if err != nil {
		return nil, err
	}
	if cfg.ThresholdDivisor < 0 {
		return nil, fmt.Errorf("hh: ThresholdDivisor must be >= 0, got %g", cfg.ThresholdDivisor)
	}
	p.eng = eng
	for j := 0; j < cfg.K; j++ {
		p.sites = append(p.sites, p.newSite())
	}
	return &Tracker{Engine: eng, p: p}, nil
}

// counts is one item's exact-mode state at a site: the local frequency
// m_{x,j} and the unreported increment Δ(m_x).
type counts struct {
	local int64
	dx    int64
}

// newSite returns an empty site with the configured mode's store.
func (p *policy) newSite() *site {
	s := &site{}
	switch p.cfg.Mode {
	case ModeSketch:
		s.ss = spacesaving.NewEps(p.cfg.Eps / sketchEpsFraction)
		s.lastRep = make(map[uint64]int64)
	case ModeMGSketch:
		s.mgs = mg.NewEps(p.cfg.Eps / sketchEpsFraction)
		s.lastRep = make(map[uint64]int64)
	default:
		s.tab = slots.New[counts]()
	}
	return s
}

// divisor returns the d of the reporting threshold ε·S_j.m/dk: 3, or
// ThresholdDivisor when set.
func (p *policy) divisor() float64 {
	if p.cfg.ThresholdDivisor != 0 {
		return p.cfg.ThresholdDivisor
	}
	return 3
}

// threshold returns site s's current reporting threshold ε·S_j.m/dk, floored
// at one item.
func (p *policy) threshold(s *site) int64 {
	thr := int64(p.cfg.Eps * float64(s.m) / (p.divisor() * float64(p.cfg.K)))
	if thr < 1 {
		thr = 1
	}
	return thr
}

// bootTarget returns ⌈d·k/ε⌉, the coordinator count at which the reporting
// threshold ε·S.m/dk reaches one item. Below it every tracked arrival would
// cross the one-item floor and pay an "all" report, a "freq" report and its
// share of the round's broadcast, where forwarding costs one word; so the
// bootstrap forwards until then. It is derived from the config, never stored.
func (p *policy) bootTarget() int64 {
	return int64(math.Ceil(p.divisor() * float64(p.cfg.K) / p.cfg.Eps))
}

// ApplyBoot records one bootstrap arrival in site j's frequency store and
// counts it as pending in the site's deltas until OnBootEscalate forwards
// it. An arrival that straddles the bootstrap handoff (applied here, but
// escalated after another site ended the bootstrap) is never forwarded; it
// stays in the deltas, and the site's next reports carry it.
func (p *policy) ApplyBoot(siteID int, x uint64) {
	s := p.sites[siteID]
	s.dm++
	switch p.cfg.Mode {
	case ModeSketch:
		s.ss.Add(x)
	case ModeMGSketch:
		s.mgs.Add(x)
	default:
		sl := s.tab.Get(x)
		sl.Val.local++
		sl.Val.dx++
	}
}

// ApplyRun applies the fast path to a prefix of xs with the threshold
// hoisted once per run: it depends only on S_j.m, which changes only in a
// broadcast after Engine.All — constant for the whole run. Feed passes one
// item, so the per-item and batched paths cannot drift.
func (p *policy) ApplyRun(siteID int, xs []uint64) (consumed int, crossed bool) {
	s := p.sites[siteID]
	thr := p.threshold(s)
	if p.cfg.Mode == ModeExact {
		// One slot probe per arrival; Δ(m) stays in a register for the run.
		dm := s.dm
		for i, x := range xs {
			sl := s.tab.Get(x)
			sl.Val.local++
			sl.Val.dx++
			dm++
			if sl.Val.dx >= thr || dm >= thr {
				s.dm = dm
				return i + 1, true
			}
		}
		s.dm = dm
		return len(xs), false
	}
	for i, x := range xs {
		var d int64
		if p.cfg.Mode == ModeSketch {
			s.ss.Add(x)
			d = s.ss.Est(x) - s.lastRep[x]
		} else {
			s.mgs.Add(x)
			d = s.mgs.Est(x) - s.lastRep[x]
		}
		s.dm++
		if d >= thr || s.dm >= thr {
			return i + 1, true
		}
	}
	return len(xs), false
}

// OnEscalate re-checks the reporting thresholds under the protocol lock and
// runs the (rare) communication cascade — delta reports, "all" signals,
// round changes — with all wire.Meter accounting. The "freq" and "all"
// reports touch only site siteID and coordinator counters; the round change's
// broadcast writes every site and calls Engine.All first.
func (p *policy) OnEscalate(siteID int, x uint64) {
	s := p.sites[siteID]
	thr := p.threshold(s)

	// Per-item report Δ(m_x).
	switch p.cfg.Mode {
	case ModeExact:
		if sl := s.tab.Find(x); sl != nil && sl.Val.dx >= thr {
			p.reportFreq(siteID, x, sl.Val.dx)
			sl.Val.dx = 0
		}
	case ModeSketch:
		est := s.ss.Est(x)
		if d := est - s.lastRep[x]; d >= thr {
			p.reportFreq(siteID, x, d)
			s.lastRep[x] = est
		}
	case ModeMGSketch:
		// MG estimates are non-monotone: a decayed estimate simply defers
		// reporting (d < thr); reported deltas stay valid lower bounds.
		est := s.mgs.Est(x)
		if d := est - s.lastRep[x]; d >= thr {
			p.reportFreq(siteID, x, d)
			s.lastRep[x] = est
		}
	}

	// Total report Δ(m).
	if s.dm >= thr {
		p.reportAll(siteID)
		p.allSignals++
		if p.allSignals >= p.cfg.K {
			p.newRound()
		}
	}
}

// reportFreq sends site j's unreported increment d of item x ("freq").
func (p *policy) reportFreq(j int, x uint64, d int64) {
	p.eng.Meter().Up(j, "freq", 2)
	p.cmx[x] += d
}

// reportAll sends site j's unreported Δ(m) ("all").
func (p *policy) reportAll(j int) {
	s := p.sites[j]
	p.eng.Meter().Up(j, "all", 1)
	p.cm += s.dm
	s.dm = 0
}

// OnBootEscalate forwards one bootstrap arrival, taking it out of the site's
// pending deltas; the bootstrap ends once the coordinator holds bootTarget
// items.
func (p *policy) OnBootEscalate(siteID int, x uint64) (done bool) {
	s := p.sites[siteID]
	s.dm--
	if p.cfg.Mode == ModeExact {
		s.tab.Find(x).Val.dx--
	}
	p.cm++
	p.cmx[x]++
	return p.cm >= p.bootTarget()
}

// OnBootDone broadcasts the exact count collected during bootstrap and
// baselines the sketch reporting marks: everything so far was reported
// exactly, so deltas start from here.
func (p *policy) OnBootDone() {
	p.eng.All()
	p.broadcastM()
	switch p.cfg.Mode {
	case ModeSketch:
		for _, st := range p.sites {
			for _, e := range st.ss.Top() {
				st.lastRep[e.Item] = e.Count
			}
		}
	case ModeMGSketch:
		for _, st := range p.sites {
			for _, e := range st.mgs.Top() {
				st.lastRep[e.Item] = e.Count
			}
		}
	}
}

// newRound starts the next round: the coordinator broadcasts its own C.m,
// with no exact collect — each site's unreported Δ(m) is below its
// threshold, so C.m is already within εm/3 of m, and the sites keep their
// Δ(m) for their next report.
func (p *policy) newRound() {
	p.eng.All()
	p.broadcastM()
	p.allSignals = 0
	p.rounds++
}

// broadcastM sends C.m to every site, which adopts it as S_j.m.
func (p *policy) broadcastM() {
	p.eng.Meter().Broadcast("newm", 1, p.cfg.K)
	for _, s := range p.sites {
		s.m = p.cm
	}
}

// flushItems reports every item whose unreported increment at site j is at
// least thr.
func (p *policy) flushItems(j int, thr int64) {
	s := p.sites[j]
	switch p.cfg.Mode {
	case ModeExact:
		for sl := range s.tab.All {
			if sl.Val.dx >= thr {
				p.reportFreq(j, sl.Key, sl.Val.dx)
				sl.Val.dx = 0
			}
		}
	case ModeSketch:
		for _, e := range s.ss.Top() {
			if d := e.Count - s.lastRep[e.Item]; d >= thr {
				p.reportFreq(j, e.Item, d)
				s.lastRep[e.Item] = e.Count
			}
		}
	case ModeMGSketch:
		for _, e := range s.mgs.Top() {
			if d := e.Count - s.lastRep[e.Item]; d >= thr {
				p.reportFreq(j, e.Item, d)
				s.lastRep[e.Item] = e.Count
			}
		}
	}
}

// OnReconfigure implements engine.Policy: resize the per-site
// protocol state to newK sites and restart the round — the §2.1 thresholds
// ε·S_j.m/3k depend on k, so a membership change forces a fresh broadcast
// (the paper's protocols restart their round on reconfiguration). Runs under
// the quiescent lock set, after the engine has folded the removed sites'
// arrival counts into site 0.
//
// The restart is exact: every site, departing or staying, reports its
// unreported Δ(m), so the new round starts from C.m = m. Departing sites also
// flush every unreported Δ(m_x). Growth lowers the threshold, so surviving
// sites then report any Δ(m_x) at or above the new one, and every pending
// delta is again below its site's threshold, as invariant (2) needs.
func (p *policy) OnReconfigure(oldK, newK int) {
	tracking := !p.eng.Bootstrapping()
	// Departing sites flush their unreported per-item deltas so the
	// coordinator's underestimates keep covering everything an exact-mode
	// site counted. Sketch-mode residual error below the last report is
	// abandoned with the sketch — bounded by the sketch slice of the ε
	// budget, exactly as if the site had simply stopped receiving arrivals.
	for j := newK; j < oldK; j++ {
		p.flushItems(j, 1)
		if p.cfg.Mode == ModeExact {
			// Hand the exact store to site 0, mirroring the engine's count
			// fold so SiteSpace and checkpoints stay coherent.
			s0, handed := p.sites[0], 0
			for sl := range p.sites[j].tab.All {
				if sl.Val.local != 0 {
					s0.tab.Get(sl.Key).Val.local += sl.Val.local
					handed++
				}
			}
			p.eng.Meter().Up(j, "handoff", handed)
		}
	}
	if tracking {
		// During bootstrap Δ(m) holds only arrivals whose forward is still
		// in flight; OnBootEscalate takes them out.
		for j, s := range p.sites {
			if s.dm != 0 {
				p.reportAll(j)
			}
		}
	}
	if newK < oldK {
		p.sites = p.sites[:newK]
	}
	for j := oldK; j < newK; j++ {
		p.sites = append(p.sites, p.newSite())
	}
	p.cfg.K = newK // bootTarget follows the new k
	if !tracking {
		return
	}
	p.newRound()
	if newK > oldK {
		for j := 0; j < oldK; j++ {
			p.flushItems(j, p.threshold(p.sites[j]))
		}
	}
}

// HeavyHitters returns the coordinator's current φ-heavy-hitter set, sorted.
// The result contains every x with m_x ≥ φ|A| and nothing with
// m_x < (φ−ε)|A|. phi must satisfy ε ≤ phi ≤ 1 (the paper's precondition).
func (t *Tracker) HeavyHitters(phi float64) []uint64 {
	p := t.p
	if phi < p.cfg.Eps || phi > 1 {
		panic(fmt.Sprintf("hh: phi must be in [eps, 1], got %g (eps %g)", phi, p.cfg.Eps))
	}
	if p.cm == 0 {
		return nil
	}
	tau := (phi - classifySlack*p.cfg.Eps) * float64(p.cm)
	var out []uint64
	for x, c := range p.cmx {
		if float64(c) >= tau {
			out = append(out, x)
		}
	}
	slices.Sort(out)
	return out
}

// Entry is one heavy hitter with the coordinator's frequency estimate, as
// returned by HeavyHitterEntries.
type Entry struct {
	Item  uint64
	Count int64   // C.m_x — underestimate of the global frequency
	Ratio float64 // Count / C.m — estimated frequency share
}

// HeavyHitterEntries returns the current φ-heavy-hitter set together with
// the coordinator's frequency estimates, sorted by descending Count (ties
// by ascending Item). Same classification rule and precondition as
// HeavyHitters.
func (t *Tracker) HeavyHitterEntries(phi float64) []Entry {
	items := t.HeavyHitters(phi)
	if len(items) == 0 {
		return nil
	}
	out := make([]Entry, 0, len(items))
	for _, x := range items {
		c := t.p.cmx[x]
		out = append(out, Entry{Item: x, Count: c, Ratio: float64(c) / float64(t.p.cm)})
	}
	slices.SortFunc(out, func(a, b Entry) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		return cmp.Compare(a.Item, b.Item)
	})
	return out
}

// EstFrequency returns the coordinator's estimate C.m_x.
func (t *Tracker) EstFrequency(x uint64) int64 { return t.p.cmx[x] }

// EstTotal returns the coordinator's estimate C.m.
func (t *Tracker) EstTotal() int64 { return t.p.cm }

// Rounds returns the number of completed rounds (broadcasts after the
// bootstrap's).
func (t *Tracker) Rounds() int { return t.p.rounds }

// SiteSpace returns the number of state entries held at site j — nonzero
// frequency counters plus nonzero pending deltas in exact mode, sketch
// counters plus reporting marks in sketch mode. Used by the space
// experiments (E9).
func (t *Tracker) SiteSpace(j int) int {
	s := t.p.sites[j]
	switch t.p.cfg.Mode {
	case ModeSketch:
		return s.ss.Space() + len(s.lastRep)
	case ModeMGSketch:
		return s.mgs.Space() + len(s.lastRep)
	default:
		// One entry per counter the checkpoint writes.
		n := 0
		for sl := range s.tab.All {
			if sl.Val.local != 0 {
				n++
			}
			if sl.Val.dx != 0 {
				n++
			}
		}
		return n
	}
}

// ItemThreshold returns how many further copies of x site j must receive
// before it sends its next message — the "triggering threshold" n_j the
// Lemma 2.3 adversary inspects. During bootstrap it is 1.
func (t *Tracker) ItemThreshold(j int, x uint64) int64 {
	if t.Bootstrapping() {
		return 1
	}
	p := t.p
	s := p.sites[j]
	thr := p.threshold(s)
	var dx int64
	switch p.cfg.Mode {
	case ModeSketch:
		dx = s.ss.Est(x) - s.lastRep[x]
	case ModeMGSketch:
		dx = s.mgs.Est(x) - s.lastRep[x]
	default:
		if sl := s.tab.Find(x); sl != nil {
			dx = sl.Val.dx
		}
	}
	remItem := thr - dx
	remAll := thr - s.dm
	rem := remItem
	if remAll < rem {
		rem = remAll
	}
	if rem < 1 {
		rem = 1
	}
	return rem
}
