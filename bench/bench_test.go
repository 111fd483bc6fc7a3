package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"disttrack/internal/service"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesCode pins BENCHMARK.json to the lists the code reports
// from: the same workloads, metrics and units, in the same order.
func TestManifestMatchesCode(t *testing.T) {
	m, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code default %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest %q / code %q (or their why lines) differ", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why too long", w.Name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest declares %d+%d metrics, code %d+%d", len(m.EndToEnd), len(m.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, e := range m.EndToEnd {
		if e.Name != endToEnd[i].name || e.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: manifest %s [%s], code %s [%s]", i, e.Name, e.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if e.Bound <= 0 || e.Bound > 0.25 || (e.Better != "lower" && e.Better != "higher") {
			t.Errorf("end_to_end %s: bound %g, better %q", e.Name, e.Bound, e.Better)
		}
		seen[e.Name] = true
	}
	for i, e := range m.PerLayer {
		if e.Name != perLayer[i].name || e.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: manifest %s [%s], code %s [%s]", i, e.Name, e.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !nameRE.MatchString(e.Name) || seen[e.Name] {
			t.Errorf("per_layer %s: malformed or duplicate name", e.Name)
		}
		seen[e.Name] = true
	}
}

// TestSmoke runs every workload at a small fraction of its size, untraced
// and traced, through the same entry point as the command line, and checks
// that the last stdout line carries exactly the declared metrics and that
// every oracle check and accounting identity held.
func TestSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "result.json")
	for _, tc := range []struct {
		trace string
		list  []metric
	}{{"0", endToEnd}, {"1", perLayer}} {
		for _, w := range workloads {
			t.Run(w.name+"/trace"+tc.trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "7", "--seconds", "0.0625",
					"--trace", tc.trace, "--out", out}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit code %d\nstderr: %s\nstdout: %s", code, &stderr, &stdout)
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var o outcome
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
					t.Errorf("correct %v, failed %d of %d", o.Correct, o.Failed, o.Attempted)
				}
				if len(o.Metrics) != len(tc.list) {
					t.Errorf("%d metrics reported, %d declared", len(o.Metrics), len(tc.list))
				}
				for _, m := range tc.list {
					got, ok := o.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s [%s]: reported %v [%s]", m.name, m.unit, ok, got.Unit)
					}
					if tc.trace == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, want > 0", m.name, got.Value)
					}
				}
			})
		}
	}
}

// TestEncodeBody checks the load generator's hand-rolled request encoder
// against encoding/json.
func TestEncodeBody(t *testing.T) {
	recs := []service.Record{{Tenant: "hh", Site: 3, Value: 1<<40 - 1}, {Tenant: `t"0`, Site: 0, Value: 0}}
	var got struct {
		Records []service.Record `json:"records"`
	}
	if err := json.Unmarshal(encodeBody(nil, recs), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(recs) || got.Records[0] != recs[0] || got.Records[1] != recs[1] {
		t.Errorf("round trip gave %+v, want %+v", got.Records, recs)
	}
}
