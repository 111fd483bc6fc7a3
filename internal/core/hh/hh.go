// Package hh implements the paper's §2.1 protocol for continuously tracking
// the φ-heavy hitters of a distributed stream with total communication
// O(k/ε · log n) (Theorem 2.1).
//
// # Protocol
//
// Each site S_j keeps S_j.m — its last-synchronized value of the global
// count m — plus counters Δ(m) and Δ(m_x) for the arrivals since it last
// reported. When either counter reaches the threshold ε·S_j.m/3k the site
// sends the accumulated increment to the coordinator ("all" messages for
// Δ(m), "freq" messages for Δ(m_x)). After k "all" signals the coordinator
// collects the exact global count and broadcasts it, starting a new round;
// the global count grows by a (1+ε/3) factor per round, so there are
// O(log n / ε) rounds of k "all" messages each, and no more "freq" than
// "all" messages — O(k/ε · log n) total.
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
// space). In ModeSketch each site stores a Space-Saving sketch with error
// ε/8 (the "implementing with small space" remark), keeping site space at
// O(1/ε) counters while preserving the guarantees with adjusted constants.
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
	"slices"

	"disttrack/internal/core/engine"
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
	allSignals int              // "all" messages since the last sync
	bootTarget int64
	rounds     int // completed coordinator syncs (for experiments)
}

// site is the per-site protocol state, guarded by the engine's site locks.
type site struct {
	m  int64 // S_j.m — global count at last broadcast
	dm int64 // Δ(m) — arrivals since the last "all" report

	// ModeExact state.
	local map[uint64]int64 // exact m_{x,j}
	dx    map[uint64]int64 // Δ(m_x) — unreported per-item increments

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
	p.bootTarget = eng.BootTarget()
	for j := 0; j < cfg.K; j++ {
		s := &site{}
		switch cfg.Mode {
		case ModeSketch:
			s.ss = spacesaving.NewEps(cfg.Eps / sketchEpsFraction)
			s.lastRep = make(map[uint64]int64)
		case ModeMGSketch:
			s.mgs = mg.NewEps(cfg.Eps / sketchEpsFraction)
			s.lastRep = make(map[uint64]int64)
		default:
			s.local = make(map[uint64]int64)
			s.dx = make(map[uint64]int64)
		}
		p.sites = append(p.sites, s)
	}
	return &Tracker{Engine: eng, p: p}, nil
}

// threshold returns site s's current reporting threshold ε·S_j.m/3k
// (ThresholdDivisor replacing the 3 when set), floored at one item.
func (p *policy) threshold(s *site) int64 {
	div := p.cfg.ThresholdDivisor
	if div == 0 {
		div = 3
	}
	thr := int64(p.cfg.Eps * float64(s.m) / (div * float64(p.cfg.K)))
	if thr < 1 {
		thr = 1
	}
	return thr
}

// ApplyBoot records one bootstrap arrival in site j's frequency store.
func (p *policy) ApplyBoot(siteID int, x uint64) {
	p.applyStore(p.sites[siteID], x)
}

// ApplyLocal runs the site-local fast path for one arrival: the store
// update plus the Δ(m_x)/Δ(m) accounting and threshold checks.
func (p *policy) ApplyLocal(siteID int, x uint64) (escalate bool) {
	s := p.sites[siteID]
	p.applyStore(s, x)
	return p.bumpDeltas(s, x, p.threshold(s))
}

// ApplyRun applies the fast path to a prefix of xs with the threshold
// hoisted once per run: it depends only on S_j.m, which changes only under
// every site lock — constant for the whole run.
func (p *policy) ApplyRun(siteID int, xs []uint64) (consumed int, crossed bool) {
	s := p.sites[siteID]
	thr := p.threshold(s)
	consumed = len(xs)
	for i, x := range xs {
		p.applyStore(s, x)
		if p.bumpDeltas(s, x, thr) {
			return i + 1, true
		}
	}
	return consumed, false
}

// applyStore records one arrival of x in site s's frequency store.
func (p *policy) applyStore(s *site, x uint64) {
	switch p.cfg.Mode {
	case ModeSketch:
		s.ss.Add(x)
	case ModeMGSketch:
		s.mgs.Add(x)
	default:
		s.local[x]++
	}
}

// bumpDeltas applies one arrival's Δ(m_x) and Δ(m) accounting and reports
// whether a reporting threshold was reached; thr is the site's current
// threshold, constant while the site lock is held. Shared by the per-item
// and batched fast paths so their semantics cannot drift.
func (p *policy) bumpDeltas(s *site, x uint64, thr int64) (escalate bool) {
	// Per-item increment Δ(m_x).
	switch p.cfg.Mode {
	case ModeExact:
		s.dx[x]++
		escalate = s.dx[x] >= thr
	case ModeSketch:
		escalate = s.ss.Est(x)-s.lastRep[x] >= thr
	case ModeMGSketch:
		escalate = s.mgs.Est(x)-s.lastRep[x] >= thr
	}

	// Total increment Δ(m).
	s.dm++
	return escalate || s.dm >= thr
}

// OnEscalate re-checks the reporting thresholds under the protocol lock and
// runs the (rare) communication cascade — delta reports, "all" signals,
// round syncs — with all wire.Meter accounting.
func (p *policy) OnEscalate(siteID int, x uint64) {
	s := p.sites[siteID]
	meter := p.eng.Meter()
	thr := p.threshold(s)

	// Per-item report Δ(m_x).
	switch p.cfg.Mode {
	case ModeExact:
		if s.dx[x] >= thr {
			meter.Up(siteID, "freq", 2)
			p.cmx[x] += s.dx[x]
			delete(s.dx, x)
		}
	case ModeSketch:
		est := s.ss.Est(x)
		if d := est - s.lastRep[x]; d >= thr {
			meter.Up(siteID, "freq", 2)
			p.cmx[x] += d
			s.lastRep[x] = est
		}
	case ModeMGSketch:
		// MG estimates are non-monotone: a decayed estimate simply defers
		// reporting (d < thr); reported deltas stay valid lower bounds.
		est := s.mgs.Est(x)
		if d := est - s.lastRep[x]; d >= thr {
			meter.Up(siteID, "freq", 2)
			p.cmx[x] += d
			s.lastRep[x] = est
		}
	}

	// Total report Δ(m).
	if s.dm >= thr {
		meter.Up(siteID, "all", 1)
		p.cm += s.dm
		s.dm = 0
		p.allSignals++
		if p.allSignals >= p.cfg.K {
			p.sync()
		}
	}
}

// OnBootEscalate forwards one bootstrap arrival; the bootstrap ends once
// the coordinator holds k/ε items.
func (p *policy) OnBootEscalate(_ int, x uint64) (done bool) {
	p.cm++
	p.cmx[x]++
	return p.cm >= p.bootTarget
}

// OnBootDone broadcasts the exact count collected during bootstrap and
// baselines the sketch reporting marks: everything so far was reported
// exactly, so deltas start from here.
func (p *policy) OnBootDone() {
	p.broadcastM(p.cm)
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

// sync runs the coordinator's round refresh: collect the exact global count
// from every site and broadcast it.
func (p *policy) sync() {
	meter := p.eng.Meter()
	var m int64
	for j := range p.sites {
		meter.Down(j, "sync", 1) // request
		meter.Up(j, "sync", 1)   // exact local count
		m += p.eng.SiteCount(j)
	}
	// The collected count also covers each site's unreported Δ(m).
	for _, s := range p.sites {
		s.dm = 0
	}
	p.broadcastM(m)
	p.allSignals = 0
	p.rounds++
}

func (p *policy) broadcastM(m int64) {
	p.cm = m
	p.eng.Meter().Broadcast("newm", 1, p.cfg.K)
	for _, s := range p.sites {
		s.m = m
		s.dm = 0
	}
}

// OnReconfigure implements engine.ReconfigurePolicy: resize the per-site
// protocol state to newK sites and restart the round — the §2.1 thresholds
// ε·S_j.m/3k depend on k, so a membership change forces a fresh sync and
// broadcast (the paper's protocols restart their round on reconfiguration).
// Runs under the quiescent lock set, after the engine has folded the removed
// sites' arrival counts into site 0.
func (p *policy) OnReconfigure(oldK, newK int) {
	meter := p.eng.Meter()
	if newK < oldK {
		// Departing sites flush their unreported per-item deltas so the
		// coordinator's underestimates keep covering everything an
		// exact-mode site counted. Sketch-mode residual error below the
		// last report is abandoned with the sketch — bounded by the sketch
		// slice of the ε budget, exactly as if the site had simply stopped
		// receiving arrivals.
		for j := newK; j < oldK; j++ {
			s := p.sites[j]
			switch p.cfg.Mode {
			case ModeExact:
				for x, d := range s.dx {
					if d > 0 {
						meter.Up(j, "freq", 2)
						p.cmx[x] += d
					}
				}
				// Hand the exact store to site 0, mirroring the engine's
				// count fold so SiteSpace and checkpoints stay coherent.
				s0 := p.sites[0]
				for x, c := range s.local {
					s0.local[x] += c
				}
				meter.Up(j, "handoff", len(s.local))
			case ModeSketch:
				for _, e := range s.ss.Top() {
					if d := e.Count - s.lastRep[e.Item]; d > 0 {
						meter.Up(j, "freq", 2)
						p.cmx[e.Item] += d
					}
				}
			case ModeMGSketch:
				for _, e := range s.mgs.Top() {
					if d := e.Count - s.lastRep[e.Item]; d > 0 {
						meter.Up(j, "freq", 2)
						p.cmx[e.Item] += d
					}
				}
			}
		}
		p.sites = p.sites[:newK]
	} else {
		for j := oldK; j < newK; j++ {
			s := &site{}
			switch p.cfg.Mode {
			case ModeSketch:
				s.ss = spacesaving.NewEps(p.cfg.Eps / sketchEpsFraction)
				s.lastRep = make(map[uint64]int64)
			case ModeMGSketch:
				s.mgs = mg.NewEps(p.cfg.Eps / sketchEpsFraction)
				s.lastRep = make(map[uint64]int64)
			default:
				s.local = make(map[uint64]int64)
				s.dx = make(map[uint64]int64)
			}
			p.sites = append(p.sites, s)
		}
	}
	p.cfg.K = newK
	p.bootTarget = p.eng.BootTarget()
	if !p.eng.Bootstrapping() {
		p.sync()
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

// Rounds returns the number of completed coordinator syncs.
func (t *Tracker) Rounds() int { return t.p.rounds }

// SiteSpace returns the number of state entries held at site j — frequency
// counters plus pending deltas in exact mode, sketch counters plus reporting
// marks in sketch mode. Used by the space experiments (E9).
func (t *Tracker) SiteSpace(j int) int {
	s := t.p.sites[j]
	switch t.p.cfg.Mode {
	case ModeSketch:
		return s.ss.Space() + len(s.lastRep)
	case ModeMGSketch:
		return s.mgs.Space() + len(s.lastRep)
	default:
		return len(s.local) + len(s.dx)
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
		dx = s.dx[x]
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
