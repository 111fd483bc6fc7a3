package harness

import (
	"fmt"

	"disttrack/internal/core/hh"
	"disttrack/internal/core/quantile"
	"disttrack/internal/oracle"
	"disttrack/internal/stream"
)

// Ablations regenerates the design-choice ablation tables (A1–A4): the
// paper's constants and substrate choices, each varied to show why the
// chosen value is the right one.
func Ablations(quick bool) []*Table {
	return []*Table{A1(quick), A2(quick), A3(quick), A4(quick)}
}

// hhAudit runs an hh tracker over a zipf stream with full oracle checking,
// returning words spent, contract violations and the worst miss margin.
func hhAudit(cfg hh.Config, n int64, phi float64, assign stream.Assigner, seed int64) (words int64, violations int, maxErr float64) {
	tr, err := hh.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("harness ablation: %v", err))
	}
	o := oracle.New()
	g := stream.Zipf(1_000_000, n, 1.3, seed)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		tr.Feed(assign.Site(i, x), x)
		o.Add(x)
		if i%499 != 0 || i <= 100 {
			continue
		}
		nn := float64(o.Len())
		reported := map[uint64]bool{}
		for _, v := range tr.HeavyHitters(phi) {
			reported[v] = true
			if f := float64(o.Count(v)); f < (phi-cfg.Eps)*nn {
				violations++
				if m := ((phi-cfg.Eps)*nn - f) / nn; m > maxErr {
					maxErr = m
				}
			}
		}
		for _, v := range o.HeavyHitters(phi) {
			if !reported[v] {
				violations++
				if m := (float64(o.Count(v)) - (phi-cfg.Eps)*nn) / nn; m > maxErr {
					maxErr = m
				}
			}
		}
	}
	return tr.Meter().Total().Words, violations, maxErr
}

// A1 — the ε·m/3k constant: why the divisor is 3.
func A1(quick bool) *Table {
	t := NewTable("A1: HH reporting-threshold divisor (paper: 3; k=8, eps=0.05, phi=0.1)",
		"divisor", "words", "violations", "worst miss (fraction of |A|)")
	t.Note = "Below 3 the invariants (2)-(3) no longer close: cheaper, but the contract can break."
	n := scaleN(quick, 1<<18)
	for _, div := range []float64{1, 1.5, 2, 3, 6, 12} {
		w, v, e := hhAudit(hh.Config{K: 8, Eps: 0.05, ThresholdDivisor: div},
			n, 0.1, stream.RoundRobin(8), 21)
		t.Add(div, w, v, e)
	}
	return t
}

// A2 — the local sketch: Space-Saving vs exact.
func A2(quick bool) *Table {
	t := NewTable("A2: local sketch choice in sketch mode (k=8, eps=0.05, phi=0.1)",
		"site store", "words", "violations", "worst miss")
	t.Note = "Space-Saving, the sketch the paper cites [26], upholds the contract at the exact store's words."
	n := scaleN(quick, 1<<18)
	for _, mc := range []struct {
		name   string
		sketch bool
	}{
		{"exact", false},
		{"space-saving", true},
	} {
		w, v, e := hhAudit(hh.Config{K: 8, Eps: 0.05, Sketch: mc.sketch},
			n, 0.1, stream.RoundRobin(8), 22)
		t.Add(mc.name, w, v, e)
	}
	return t
}

// A3 — arrival placement: the guarantee is placement-independent, cost
// nearly so.
func A3(quick bool) *Table {
	t := NewTable("A3: arrival-placement sensitivity (k=8, eps=0.05, phi=0.1)",
		"assignment", "words", "violations")
	t.Note = "Worst-case guarantees are placement-independent; cost varies only mildly."
	n := scaleN(quick, 1<<18)
	for _, ac := range []struct {
		name   string
		assign stream.Assigner
	}{
		{"round-robin", stream.RoundRobin(8)},
		{"random", stream.RandomAssign(8, 23)},
		{"by-hash", stream.ByHash(8)},
		{"single-site", stream.SingleSite(3)},
		{"skewed-8:1", stream.WeightedAssign([]float64{8, 1, 1, 1, 1, 1, 1, 1}, 24)},
	} {
		w, v, _ := hhAudit(hh.Config{K: 8, Eps: 0.05}, n, 0.1, ac.assign, 25)
		t.Add(ac.name, w, v)
	}
	return t
}

// A4 — the εm/8k batch size in the quantile protocol.
func A4(quick bool) *Table {
	t := NewTable("A4: quantile report batch divisor (paper's analysis: 8; k=8, eps=0.05)",
		"divisor", "words", "worst rank err/eps", "splits")
	t.Note = "Smaller divisors batch harder: cheaper until the staleness eats the error budget."
	n := scaleN(quick, 1<<18)
	for _, div := range []float64{2, 4, 8, 16, 32} {
		tr, err := quantile.New(quantile.Config{K: 8, Eps: 0.05, Phis: []float64{0.5}, BatchDivisor: div})
		if err != nil {
			panic(err)
		}
		o := oracle.New()
		g := stream.Perturb(stream.Uniform(1<<30, n, 26))
		worst := 0.0
		for i := 0; ; i++ {
			x, ok := g.Next()
			if !ok {
				break
			}
			tr.Feed(i%8, x)
			o.Add(x)
			if i%499 == 0 && i > 100 {
				if e := o.QuantileRankError(tr.Quantile(), 0.5); e > worst {
					worst = e
				}
			}
		}
		t.Add(div, tr.Meter().Total().Words, worst/0.05, tr.Splits())
	}
	return t
}
