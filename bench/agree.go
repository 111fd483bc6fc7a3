package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// manifest is the part of BENCHMARK.json the benchmark itself reads.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest() (*manifest, error) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// runAgree is the repeatability check: the chosen workloads twice in one
// session, and for every workload x end-to-end metric both values, their
// relative difference and the bound BENCHMARK.json fixes. It fails when a
// pair disagrees by more than its bound — a metric that cannot repeat within
// its own regression bound cannot carry a claim.
func runAgree(chosen []workload, seed int64, seconds float64, stdout, stderr io.Writer) int {
	m, err := readManifest()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for i := range chosen {
		w := &chosen[i]
		var runs [2]values
		for j := range runs {
			o, _, err := runGuarded(w, seed, seconds, false, "", io.Discard)
			if err != nil || !o.Correct {
				fmt.Fprintf(stderr, "bench: %s: run %d failed: %v\n", w.name, j+1, err)
				return 1
			}
			runs[j] = values{}
			for name, mv := range o.Metrics {
				runs[j][name] = mv.Value
			}
		}
		fmt.Fprintf(stdout, "\n== %s\n  %-24s %16s %16s %9s %7s\n", w.name, "metric", "first", "second", "diff", "bound")
		for _, e := range m.EndToEnd {
			a, b := runs[0][e.Name], runs[1][e.Name]
			diff := math.Abs(b-a) / math.Max(math.Abs(a), math.SmallestNonzeroFloat64)
			verdict := ""
			if diff > e.Bound {
				verdict, code = "  DISAGREE", 1
			}
			fmt.Fprintf(stdout, "  %-24s %16.4f %16.4f %8.2f%% %6.0f%%%s\n", e.Name, a, b, diff*100, e.Bound*100, verdict)
		}
	}
	return code
}
