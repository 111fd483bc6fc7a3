package harness

import (
	"strconv"
	"strings"
	"testing"
)

func TestRunDefaults(t *testing.T) {
	r, err := Run(Spec{Algo: HHExact, N: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 8 || r.Eps != 0.05 || r.Phi != 0.1 {
		t.Fatalf("defaults not applied: %+v", r.Spec)
	}
	if r.Words == 0 || r.Msgs == 0 {
		t.Fatal("no communication recorded")
	}
}

// TestHHFarBelowNaive checks that the heavy-hitter protocol's traffic is
// sublinear: at k = 4, ε = 0.05 it sends about a tenth of what forwarding
// every arrival costs, so a quarter leaves room without hiding a regression
// to per-arrival reports.
func TestHHFarBelowNaive(t *testing.T) {
	const k, eps, n = 4, 0.05, 40_000
	for _, w := range []Workload{WZipf, WUniform} {
		run := func(algo Algo) Result {
			r, err := Run(Spec{Algo: algo, K: k, Eps: eps, N: n, Workload: w, Seed: 1})
			if err != nil {
				t.Fatalf("%s on %s: %v", algo, w.Name, err)
			}
			return r
		}
		hh, naive := run(HHExact), run(Naive)
		if hh.Msgs > naive.Msgs/4 || hh.Words > naive.Words/4 {
			t.Errorf("%s: hh sent %d msgs / %d words, naive %d / %d: not far below naive",
				w.Name, hh.Msgs, hh.Words, naive.Msgs, naive.Words)
		}
	}
}

// coreAlgo reports whether algo is one of the paper's trackers, which
// bootstrap exactly and report Rounds.
func coreAlgo(algo Algo) bool {
	switch algo {
	case HHExact, HHSketch, QuantExact, QuantSketch, AllQ, AllQSketch:
		return true
	}
	return false
}

func TestRunAllAlgosWithChecking(t *testing.T) {
	for _, algo := range []Algo{
		HHExact, HHSketch, QuantExact, QuantSketch, AllQ, AllQSketch,
		Naive, Push, Poll, Sampling,
	} {
		// 24,000 items take allq at k=8, ε=0.05 past its 10,240-item
		// bootstrap and into its second round.
		r, err := Run(Spec{Algo: algo, N: 24000, CheckEvery: 499, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if r.Violations != 0 {
			t.Errorf("%s: %d contract violations (max err %.4f)", algo, r.Violations, r.MaxErr)
		}
		if coreAlgo(algo) && r.Extra["rounds"] < 2 {
			t.Errorf("%s: %g rounds: the contract was never checked in the tracking phase", algo, r.Extra["rounds"])
		}
	}
}

func TestRunUnknownAlgo(t *testing.T) {
	if _, err := Run(Spec{Algo: "nope"}); err == nil {
		t.Fatal("unknown algo should error")
	}
}

func TestQuantileSpecUsesPhi(t *testing.T) {
	r, err := Run(Spec{Algo: QuantExact, N: 20000, Phi: 0.9, CheckEvery: 999})
	if err != nil {
		t.Fatal(err)
	}
	if r.Phi != 0.9 {
		t.Fatalf("phi not preserved: %+v", r.Spec)
	}
	if r.Violations != 0 {
		t.Fatalf("phi=0.9 run violated the contract %d times", r.Violations)
	}
}

func TestDeterministicResults(t *testing.T) {
	s := Spec{Algo: AllQ, N: 20000, Seed: 3}
	r1, _ := Run(s)
	r2, _ := Run(s)
	if r1.Words != r2.Words || r1.Msgs != r2.Msgs {
		t.Fatalf("same spec diverged: %d/%d vs %d/%d", r1.Msgs, r1.Words, r2.Msgs, r2.Words)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "a", "bb")
	tb.Note = "a note"
	tb.Add(1, 2.34567)
	tb.Add("x", 5)
	s := tb.String()
	for _, want := range []string{"== demo ==", "a note", "bb", "2.346", "x"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table output %q missing %q", s, want)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,bb\n") || !strings.Contains(csv, "1,2.346") {
		t.Fatalf("csv output %q", csv)
	}
}

func TestExperimentsQuickAllProduceRows(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	for _, tb := range Experiments(true) {
		if len(tb.Rows) == 0 {
			t.Errorf("experiment %q produced no rows", tb.Title)
		}
		if len(tb.Cols) == 0 {
			t.Errorf("experiment %q has no columns", tb.Title)
		}
		for i, row := range tb.Rows {
			if len(row) != len(tb.Cols) {
				t.Errorf("experiment %q row %d has %d cells for %d cols",
					tb.Title, i, len(row), len(tb.Cols))
			}
		}
	}
}

func TestE8AccuracyHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb := E8(true)
	for _, row := range tb.Rows {
		if row[3] != "0" {
			t.Errorf("E8 violation count nonzero: %v", row)
		}
		if rounds, _ := strconv.Atoi(row[4]); coreAlgo(Algo(row[0])) && rounds < 2 {
			t.Errorf("E8 row never reached the tracking phase's second round: %v", row)
		}
	}
}
