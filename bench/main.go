// Command bench is the repository's benchmark: one process, standard
// library only, loopback only, fixed work, checked answers. See README.md
// for the workloads, the metrics and how they are expected to interact.
//
//	go run -C bench . --workload hh_stream --seed 1 --seconds 8 --trace 0
//	go run -C bench .            # every workload, end-to-end metrics
//	go run -C bench . --trace 1  # every workload, per-layer metrics + bench/out/trace-*.json
//	go run -C bench . --agree    # the full set twice, compared against BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

const (
	defaultSeed    = 1
	defaultSeconds = 8 // BENCHMARK.json's run_seconds
	setupRepeats   = 3 // set-ups per run; setup_s is their median
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// outcome is one workload's result in the shape the last stdout line has.
type outcome struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newOutcome(list []metric, v values, attempted, failed int64, broken []string) outcome {
	o := outcome{Correct: failed == 0 && len(broken) == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]measured{}}
	for _, m := range list {
		o.Metrics[m.name] = measured{v[m.name], m.unit}
	}
	return o
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all)")
	seed := fs.Int64("seed", defaultSeed, "input seed; the same seed gives the same records")
	seconds := fs.Float64("seconds", defaultSeconds, "budget that fixes the record count (records = calibrated rate x seconds)")
	trace := fs.Int("trace", 0, "1: the traced run (per-layer metrics, rung ladder, spans) instead of the end-to-end run")
	agree := fs.Bool("agree", false, "run the full set twice and compare against BENCHMARK.json's bounds")
	out := fs.String("out", filepath.Join("out", "result.json"), "where to write the full result document; traces go beside it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	chosen := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		chosen = []workload{*w}
	}
	if *agree {
		return runAgree(chosen, *seed, *seconds, stdout, stderr)
	}

	doc := resultDoc{Env: environment(), Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	fmt.Fprintf(stdout, "bench: %s %s/%s, nproc %d, GOMAXPROCS %d, commit %s, seed %d, %g s budget\n",
		doc.Env.Go, runtime.GOOS, runtime.GOARCH, doc.Env.NProc, doc.Env.GOMAXPROCS, doc.Env.Commit, *seed, *seconds)
	code := 0
	for i := range chosen {
		w := &chosen[i]
		o, info, err := runGuarded(w, *seed, *seconds, *trace == 1, filepath.Dir(*out), stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if !o.Correct {
			code = 1
		}
		doc.Workloads = append(doc.Workloads, workloadDoc{Name: w.name, Info: info, outcome: o})
		line, _ := json.Marshal(o)
		fmt.Fprintf(stdout, "%s\n", line)
		debug.FreeOSMemory() // workloads share the process; start the next one from a clean heap
	}
	if err := doc.write(*out); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return code
}

// runGuarded runs one workload under its watchdog: a run that hangs exits
// the process with the workload's name instead of hanging the caller.
func runGuarded(w *workload, seed int64, seconds float64, traced bool, outDir string, stdout io.Writer) (outcome, runInfo, error) {
	limit := min(max(time.Duration(seconds*12)*time.Second, time.Minute), 170*time.Second)
	dog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: watchdog: workload %s still running after %v\n", w.name, limit)
		os.Exit(3)
	})
	defer dog.Stop()
	if traced {
		return runTraced(w, seed, seconds, outDir, stdout)
	}
	r, err := runE2E(w, seed, seconds, runOpts{transport: w.transport, setups: setupRepeats})
	if err != nil {
		return outcome{}, runInfo{}, err
	}
	info := r.info()
	printHeader(stdout, w, info)
	v := r.endToEndValues()
	printValues(stdout, endToEnd, v, r.notes())
	fmt.Fprintln(stdout, "  latencies, unbounded (per-layer names; part of the --trace 1 result):")
	printValues(stdout, latency, r.latencyValues(), r.notes())
	printOps(stdout, r.attempted, r.failed, r.broken)
	return newOutcome(endToEnd, v, r.attempted, r.failed, r.broken), info, nil
}

// runInfo describes the work one run did, for the result document.
type runInfo struct {
	Transport    string `json:"transport"`
	Loop         string `json:"loop"`
	Records      int64  `json:"records"`
	BlockRecords int    `json:"block_records"`
	BlockBytes   int64  `json:"block_bytes"`
	Passes       int    `json:"passes"`
	Tenants      int    `json:"tenants"`
}

func (r *report) info() runInfo {
	loop := fmt.Sprintf("closed loop, %d clients", producers)
	if r.in.w.openLoop {
		loop = fmt.Sprintf("open loop at %d batches/s beside 1 closed-loop HTTP query client (loopback)", mixedRate)
	}
	return runInfo{Transport: r.transport.String(), Loop: loop, Records: r.in.totalRecords(),
		BlockRecords: r.in.blockRecords(), BlockBytes: r.in.blockBytes(), Passes: r.in.passes,
		Tenants: len(r.in.tenants)}
}

// notes annotates the set-up, latency and memory lines with sample counts.
func (r *report) notes() map[string]string {
	queries := "HTTP round trips"
	if !r.queriesViaHTTP {
		queries = fmt.Sprintf("samples, each the mean of %d in-process queries", queryChunk)
	}
	return map[string]string{
		"setup_s":       fmt.Sprintf("median of %d set-ups: %.3f", len(r.setupS), r.setupS),
		"peak_rss_mb":   fmt.Sprintf("includes the %.1f MiB pre-generated block", float64(r.in.blockBytes())/(1<<20)),
		"ingest.p50_us": fmt.Sprintf("%d batches", r.ingest.n),
		"query.p50_us":  fmt.Sprintf("%d %s", r.query.n, queries),
	}
}

func printHeader(w io.Writer, wl *workload, info runInfo) {
	fmt.Fprintf(w, "\n== %s: %s; %s; %d records (%d passes over a %d-record block), %d tenants\n",
		wl.name, info.Transport, info.Loop, info.Records, info.Passes, info.BlockRecords, info.Tenants)
}

func printValues(w io.Writer, list []metric, v values, notes map[string]string) {
	for _, m := range list {
		note := ""
		if n := notes[m.name]; n != "" {
			note = "  (" + n + ")"
		}
		fmt.Fprintf(w, "  %-40s %16.4f %-9s%s\n", m.name, v[m.name], m.unit, note)
	}
}

func printOps(w io.Writer, attempted, failed int64, broken []string) {
	fmt.Fprintf(w, "  failed_ops %d / attempted_ops %d\n", failed, attempted)
	for _, b := range broken {
		fmt.Fprintf(w, "  BROKEN: %s\n", b)
	}
}

// env is where the numbers were taken.
type env struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func environment() env {
	return env{Commit: headCommit(), Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// headCommit is the commit the repository one level up has checked out, read
// from its .git directory: `go run` stamps no revision into the binary, and
// the benchmark starts no child process to ask git. A checkout that is not a
// git repository (the benchmark driver's) reads "unknown".
func headCommit() string {
	const gitDir = "../.git"
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, symbolic := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !symbolic {
		return ref // detached HEAD holds the hash itself
	}
	if hash, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(hash))
	}
	packed, _ := os.ReadFile(filepath.Join(gitDir, "packed-refs")) // absent file: no line matches
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, ok := strings.CutSuffix(line, " "+ref); ok {
			return hash
		}
	}
	return "unknown"
}

// resultDoc is the full result written to --out.
type resultDoc struct {
	Env       env           `json:"env"`
	Seed      int64         `json:"seed"`
	Seconds   float64       `json:"seconds"`
	Trace     bool          `json:"trace"`
	Workloads []workloadDoc `json:"workloads"`
}

type workloadDoc struct {
	Name string  `json:"name"`
	Info runInfo `json:"info"`
	outcome
}

func (d *resultDoc) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
