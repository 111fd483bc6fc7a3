// Package harness runs the reproduction experiments: it drives any of the
// trackers (core protocols, baselines, extensions) over parameterized
// workloads, verifies the approximation contracts against the exact oracle,
// and collects communication and accuracy metrics.
//
// The paper (PODS 2009) is theoretical and has no empirical tables; the
// experiments here regenerate its *claims* — see "Experiments" in
// docs/architecture.md for the index (E1–E11, E13, F1, A1–A4), and the
// Experiments function in this package for the implementations.
package harness

import (
	"fmt"

	"disttrack/internal/baseline"
	"disttrack/internal/core/allq"
	"disttrack/internal/core/hh"
	"disttrack/internal/core/quantile"
	"disttrack/internal/ext/sampling"
	"disttrack/internal/oracle"
	"disttrack/internal/stream"
	"disttrack/internal/wire"
)

// Algo selects a tracking algorithm.
type Algo string

// The available algorithms.
const (
	HHExact     Algo = "hh"           // Theorem 2.1, exact sites
	HHSketch    Algo = "hh-sketch"    // Theorem 2.1, space-saving sites
	QuantExact  Algo = "quant"        // Theorem 3.1, exact sites
	QuantSketch Algo = "quant-sketch" // Theorem 3.1, GK sites
	AllQ        Algo = "allq"         // Theorem 4.1, exact sites
	AllQSketch  Algo = "allq-sketch"  // Theorem 4.1, GK sites
	Naive       Algo = "naive"        // forward everything
	Push        Algo = "push"         // CGMR'05-style, O(k/ε² log n)
	Poll        Algo = "poll"         // coordinator polling, O(k/ε² log n)
	Sampling    Algo = "sampling"     // §5 randomized, O((k+1/ε²) polylog)
)

// Workload is a reproducible stream recipe.
type Workload struct {
	Name string
	// Make builds a fresh generator of n items using the given seed.
	Make func(n, seed int64) stream.Generator
	// NeedsPerturb marks workloads with repeated values that quantile
	// algorithms must see perturbed.
	NeedsPerturb bool
}

// Standard workloads.
var (
	WZipf = Workload{
		Name:         "zipf(1.3)",
		Make:         func(n, seed int64) stream.Generator { return stream.Zipf(1_000_000, n, 1.3, seed) },
		NeedsPerturb: true,
	}
	WUniform = Workload{
		Name:         "uniform",
		Make:         func(n, seed int64) stream.Generator { return stream.Uniform(1<<30, n, seed) },
		NeedsPerturb: true, // collisions are rare but possible
	}
	WHotSet = Workload{
		Name:         "hotset",
		Make:         func(n, seed int64) stream.Generator { return stream.HotSet(1_000_000, n, 5, 0.6, seed) },
		NeedsPerturb: true,
	}
	WSorted = Workload{
		Name:         "sorted",
		Make:         func(n, seed int64) stream.Generator { return stream.Sequential(n) },
		NeedsPerturb: false,
	}
)

// Spec describes one experiment run.
type Spec struct {
	Algo     Algo
	K        int
	Eps      float64
	Phi      float64 // HH threshold or tracked quantile (defaults: 0.1 / 0.5)
	N        int64
	Workload Workload
	Seed     int64
	// CheckEvery enables accuracy checking against the oracle every so many
	// arrivals (0 disables, for cost-only runs).
	CheckEvery int
}

// Result is the outcome of one run.
type Result struct {
	Spec
	Msgs, Words int64
	// MaxErr is the worst observed error as a fraction of |A| (rank error
	// for quantile algorithms, frequency margin beyond the allowed band for
	// heavy hitters — 0 when the contract held with slack).
	MaxErr float64
	// Violations counts hard contract violations (must be 0).
	Violations int
	// Extra carries algorithm-specific statistics.
	Extra map[string]float64
}

// runner adapts every algorithm to a common drive-and-query surface.
type runner struct {
	feed  func(site int, x uint64)
	meter func() *wire.Meter
	hh    func(phi float64) []uint64 // nil if not supported
	quant func(phi float64) uint64   // nil if not supported
	extra func() map[string]float64
}

func (s Spec) defaults() Spec {
	if s.Phi == 0 {
		switch s.Algo {
		case QuantExact, QuantSketch:
			s.Phi = 0.5
		default:
			s.Phi = 0.1
		}
	}
	if s.K == 0 {
		s.K = 8
	}
	if s.Eps == 0 {
		s.Eps = 0.05
	}
	if s.N == 0 {
		s.N = 1 << 17
	}
	if s.Workload.Make == nil {
		s.Workload = WZipf
	}
	return s
}

func (s Spec) build() (*runner, error) {
	switch s.Algo {
	case HHExact, HHSketch:
		mode := hh.ModeExact
		if s.Algo == HHSketch {
			mode = hh.ModeSketch
		}
		t, err := hh.New(hh.Config{K: s.K, Eps: s.Eps, Mode: mode})
		if err != nil {
			return nil, err
		}
		return &runner{
			feed:  t.Feed,
			meter: t.Meter,
			hh:    t.HeavyHitters,
			extra: func() map[string]float64 {
				return map[string]float64{"rounds": float64(t.Rounds())}
			},
		}, nil
	case QuantExact, QuantSketch:
		mode := quantile.ModeExact
		if s.Algo == QuantSketch {
			mode = quantile.ModeSketch
		}
		t, err := quantile.New(quantile.Config{K: s.K, Eps: s.Eps, Phi: s.Phi, Mode: mode})
		if err != nil {
			return nil, err
		}
		return &runner{
			feed:  t.Feed,
			meter: t.Meter,
			quant: func(float64) uint64 { return t.Quantile() },
			extra: func() map[string]float64 {
				return map[string]float64{
					"rounds": float64(t.Rounds()),
					"splits": float64(t.Splits()),
					"relocs": float64(t.Relocations()),
				}
			},
		}, nil
	case AllQ, AllQSketch:
		mode := allq.ModeExact
		if s.Algo == AllQSketch {
			mode = allq.ModeSketch
		}
		t, err := allq.New(allq.Config{K: s.K, Eps: s.Eps, Mode: mode})
		if err != nil {
			return nil, err
		}
		return &runner{
			feed:  t.Feed,
			meter: t.Meter,
			quant: t.Quantile,
			extra: func() map[string]float64 {
				st := t.TreeStats()
				return map[string]float64{
					"rounds":   float64(t.Rounds()),
					"rebuilds": float64(t.Rebuilds()),
					"leaves":   float64(st.Leaves),
					"height":   float64(st.Height),
					"hcap":     float64(st.HeightCap),
				}
			},
		}, nil
	case Naive:
		t := baseline.NewNaive()
		return &runner{feed: t.Feed, meter: t.Meter, hh: t.HeavyHitters, quant: t.Quantile}, nil
	case Push:
		t, err := baseline.NewPush(s.K, s.Eps)
		if err != nil {
			return nil, err
		}
		return &runner{feed: t.Feed, meter: t.Meter, hh: t.HeavyHitters, quant: t.Quantile}, nil
	case Poll:
		t, err := baseline.NewPoll(s.K, s.Eps)
		if err != nil {
			return nil, err
		}
		return &runner{feed: t.Feed, meter: t.Meter, hh: t.HeavyHitters, quant: t.Quantile}, nil
	case Sampling:
		t, err := sampling.New(sampling.Config{K: s.K, Eps: s.Eps, Seed: s.Seed + 1})
		if err != nil {
			return nil, err
		}
		return &runner{
			feed:  t.Feed,
			meter: t.Meter,
			hh:    t.HeavyHitters,
			quant: t.Quantile,
			extra: func() map[string]float64 {
				return map[string]float64{"sample": float64(t.SampleSize())}
			},
		}, nil
	default:
		return nil, fmt.Errorf("harness: unknown algorithm %q", s.Algo)
	}
}

// quantileAlgo reports whether the algorithm answers rank/quantile queries
// over perturbed keys.
func (s Spec) quantileAlgo() bool {
	switch s.Algo {
	case QuantExact, QuantSketch, AllQ, AllQSketch:
		return true
	}
	return false
}

// Run executes the spec and returns its result. It panics only on internal
// contract violations of the harness itself; tracker violations are counted
// in the result.
func Run(s Spec) (Result, error) {
	s = s.defaults()
	r, err := s.build()
	if err != nil {
		return Result{}, err
	}
	res := Result{Spec: s}

	gen := s.Workload.Make(s.N, s.Seed)
	perturbed := s.quantileAlgo() && s.Workload.NeedsPerturb
	if perturbed {
		gen = stream.Perturb(gen)
	}
	assign := stream.RoundRobin(s.K)

	var o *oracle.Oracle
	if s.CheckEvery > 0 {
		o = oracle.New()
	}
	for i := 0; ; i++ {
		x, ok := gen.Next()
		if !ok {
			break
		}
		r.feed(assign.Site(i, x), x)
		if o == nil {
			continue
		}
		o.Add(x)
		if i%s.CheckEvery == 0 && i > 100 {
			s.check(r, o, &res)
		}
	}
	if o != nil {
		s.check(r, o, &res)
	}

	c := r.meter().Total()
	res.Msgs, res.Words = c.Msgs, c.Words
	if r.extra != nil {
		res.Extra = r.extra()
	}
	return res, nil
}

// check verifies the contract at one prefix and folds errors into res.
func (s Spec) check(r *runner, o *oracle.Oracle, res *Result) {
	n := float64(o.Len())
	if r.quant != nil && (s.quantileAlgo() || s.Algo == Naive || s.Algo == Push || s.Algo == Poll || s.Algo == Sampling) {
		v := r.quant(s.quantPhi())
		e := o.QuantileRankError(v, s.quantPhi())
		if e > res.MaxErr {
			res.MaxErr = e
		}
		if e > s.allowedQuantErr() {
			res.Violations++
		}
	}
	if r.hh != nil {
		phi := s.Phi
		if s.quantileAlgo() {
			return
		}
		reported := map[uint64]bool{}
		for _, x := range r.hh(phi) {
			reported[x] = true
			if f := float64(o.Count(x)); f < (phi-s.Eps)*n {
				res.Violations++
				if margin := ((phi-s.Eps)*n - f) / n; margin > res.MaxErr {
					res.MaxErr = margin
				}
			}
		}
		for _, x := range o.HeavyHitters(phi) {
			if !reported[x] {
				res.Violations++
			}
		}
	}
}

// quantPhi is the quantile used for accuracy checks.
func (s Spec) quantPhi() float64 {
	if s.Algo == QuantExact || s.Algo == QuantSketch {
		return s.Phi
	}
	return 0.5
}

// allowedQuantErr is the per-algorithm quantile error budget.
func (s Spec) allowedQuantErr() float64 {
	switch s.Algo {
	case AllQ, AllQSketch:
		return 1.5 * s.Eps // leaf-edge extraction slack (see package allq)
	case Naive:
		return 1e-9
	default:
		return s.Eps
	}
}
