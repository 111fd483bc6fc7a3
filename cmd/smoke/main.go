// Command smoke runs trackd as real processes and checks what the
// in-process tests cannot: exactly-once delivery across process boundaries,
// and recovery from crashes, faults and membership changes.
//
//	go run ./cmd/smoke <obs|fault|crash|membership|load>
//
// Every scenario builds trackd once, boots each process on 127.0.0.1:0 and
// reads the bound addresses from its log. Every check compares decoded JSON
// fields and parsed /metrics samples exactly. The first failed check ends
// the run: the runner names the check, prints every process log and exits 1.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

var scenarios = map[string]func(*run){
	"obs":        obsScenario,
	"fault":      faultScenario,
	"crash":      crashScenario,
	"membership": membershipScenario,
	"load":       loadScenario,
}

func main() {
	if len(os.Args) != 2 || scenarios[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: smoke <obs|fault|crash|membership|load>")
		os.Exit(2)
	}
	name := os.Args[1]
	start := time.Now()
	if !execute(scenarios[name]) {
		fmt.Fprintf(os.Stderr, "%s smoke FAILED\n", name)
		os.Exit(1)
	}
	fmt.Printf("%s smoke OK (%.1fs)\n", name, time.Since(start).Seconds())
}

// anyAddr boots a listener on a port the kernel picks; trackd logs it.
const anyAddr = "127.0.0.1:0"

// client bounds every request, so a wedged process fails its check.
var client = &http.Client{Timeout: 30 * time.Second}

// failure is the panic value of a failed check. execute recovers it and
// reports the check, so like t.Fatal a failure ends the scenario where it
// happened without every helper returning an error.
type failure string

// run is one scenario's processes, work directory and trackd binary.
type run struct {
	dir   string
	bin   string
	procs []*proc
}

// execute runs scenario in a fresh work directory and reports whether every
// check passed. On a failure it prints the check and every process log.
func execute(scenario func(*run)) (ok bool) {
	dir, err := os.MkdirTemp("", "smoke-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return false
	}
	r := &run{dir: dir, bin: filepath.Join(dir, "trackd")}
	defer func() {
		v := recover()
		f, failed := v.(failure)
		if failed {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
			r.dumpLogs()
		}
		r.stopAll()
		os.RemoveAll(dir)
		if v != nil && !failed {
			panic(v)
		}
		ok = !failed
	}()
	r.step("building trackd")
	if out, err := exec.Command("go", "build", "-o", r.bin, "./cmd/trackd").CombinedOutput(); err != nil {
		r.fail("go build ./cmd/trackd: %v\n%s", err, out)
	}
	scenario(r)
	return true
}

func (r *run) step(msg string) { fmt.Println("==", msg) }

func (r *run) fail(format string, args ...any) {
	panic(failure(fmt.Sprintf(format, args...)))
}

// want fails check unless got == exp.
func want[T comparable](r *run, check string, got, exp T) {
	if got != exp {
		r.fail("%s: got %v, want %v", check, got, exp)
	}
}

func (r *run) dumpLogs() {
	for _, p := range r.procs {
		b, _ := os.ReadFile(p.log)
		fmt.Fprintf(os.Stderr, "--- %s\n%s", p.log, b)
	}
}

func (r *run) stopAll() {
	for _, p := range r.procs {
		if p.running() {
			p.cmd.Process.Kill()
			<-p.done
		}
	}
}

// proc is one trackd process. A restart reuses its arguments, with every
// listen address pinned to the one the first boot bound.
type proc struct {
	name string
	args []string
	log  string
	cmd  *exec.Cmd
	done chan struct{}

	http, ingest, metrics string // bound addresses; ingest and metrics only if configured
}

func (p *proc) url(path string) string { return "http://" + p.http + path }

func (p *proc) running() bool {
	if p.done == nil {
		return false
	}
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// start boots a new trackd process with args and waits until it is healthy.
func (r *run) start(name string, args ...string) *proc {
	p := &proc{name: name, args: args, log: filepath.Join(r.dir, name+".log")}
	r.procs = append(r.procs, p)
	r.boot(p)
	return p
}

// boot starts p (appending to its log), reads the addresses it bound and
// waits for GET /healthz to answer 200.
func (r *run) boot(p *proc) {
	r.step("starting " + p.name)
	f, err := os.OpenFile(p.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		r.fail("%s: %v", p.name, err)
	}
	st, err := f.Stat()
	if err != nil {
		r.fail("%s: %v", p.name, err)
	}
	p.cmd = exec.Command(r.bin, append(slices.Clone(p.args), "-log-format", "json")...)
	p.cmd.Stdout, p.cmd.Stderr = f, f
	err = p.cmd.Start()
	f.Close()
	if err != nil {
		r.fail("%s: %v", p.name, err)
	}
	p.done = make(chan struct{})
	go func() { p.cmd.Wait(); close(p.done) }()

	// The main HTTP listener is bound and logged last in every role: as
	// "trackd listening" by a coordinator, "trackd site listening" by a
	// site node.
	deadline := time.Now().Add(5 * time.Second)
	for {
		addrs := listeners(p.log, st.Size())
		if p.http = addrs["trackd listening"] + addrs["trackd site listening"]; p.http != "" {
			p.ingest, p.metrics = addrs["coord ingest listening"], addrs["metrics listening"]
			break
		}
		if !p.running() || time.Now().After(deadline) {
			r.fail("%s: never logged its listening address", p.name)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, a := range p.args {
		switch a {
		case "-listen":
			p.args[i+1] = p.http
		case "-ingest-listen":
			p.args[i+1] = p.ingest
		case "-metrics":
			p.args[i+1] = p.metrics
		}
	}
	for {
		if resp, err := client.Get(p.url("/healthz")); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if !p.running() || time.Now().After(deadline) {
			r.fail("%s: /healthz never answered 200", p.name)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// listeners maps each "... listening" message logged after offset off to
// the address it names.
func listeners(log string, off int64) map[string]string {
	out := map[string]string{}
	f, err := os.Open(log)
	if err != nil {
		return out
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return out
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var line struct{ Msg, Addr string }
		if json.Unmarshal(sc.Bytes(), &line) == nil && strings.HasSuffix(line.Msg, " listening") {
			out[line.Msg] = line.Addr
		}
	}
	return out
}

// kill9 kills p without warning and waits for it to exit. Kill fails only
// if p has exited already, and then done is closed.
func (r *run) kill9(p *proc) {
	r.step("kill -9 " + p.name)
	p.cmd.Process.Kill()
	<-p.done
}

// term sends p SIGTERM and waits up to 10 s for its graceful exit.
func (r *run) term(p *proc) {
	r.step("SIGTERM " + p.name)
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		r.fail("%s: no graceful exit within 10s of SIGTERM", p.name)
	}
}

// call sends one request (body marshalled as JSON unless nil) and returns
// the response with its body read. hdr lists header name, value pairs.
func (r *run) call(method, url string, body any, hdr ...string) (*http.Response, []byte) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			r.fail("%s %s: %v", method, url, err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		r.fail("%s %s: %v", method, url, err)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := client.Do(req)
	if err != nil {
		r.fail("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		r.fail("%s %s: %v", method, url, err)
	}
	return resp, raw
}

// do sends one request, requires status code wantCode and decodes the
// answer into out (nil discards it).
func (r *run) do(method, url string, body, out any, wantCode int) http.Header {
	resp, raw := r.call(method, url, body)
	if resp.StatusCode != wantCode {
		r.fail("%s %s: status %d, want %d: %s", method, url, resp.StatusCode, wantCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			r.fail("%s %s: %v in %s", method, url, err, raw)
		}
	}
	return resp.Header
}

func (r *run) get(url string, out any) http.Header {
	return r.do(http.MethodGet, url, nil, out, http.StatusOK)
}

func (r *run) post(url string, body, out any) {
	r.do(http.MethodPost, url, body, out, http.StatusOK)
}

// createTenant creates a tenant on p from its JSON config.
func (r *run) createTenant(p *proc, cfg map[string]any) {
	r.do(http.MethodPost, p.url("/v1/tenants"), cfg, nil, http.StatusCreated)
}

type record struct {
	Tenant string `json:"tenant"`
	Site   int    `json:"site"`
	Value  uint64 `json:"value"`
}

// ingest posts n records for tenant to p, record i on site i mod sites with
// value (base+i) mod 13 + 1, requires every record accepted, then flushes
// p (a site node's flush also fences its coordinator).
func (r *run) ingest(p *proc, tenant string, n, sites, base int) {
	recs := make([]record, n)
	for i := range recs {
		recs[i] = record{tenant, i % sites, uint64((base+i)%13 + 1)}
	}
	var resp struct{ Accepted int }
	r.post(p.url("/v1/ingest"), map[string]any{"records": recs}, &resp)
	want(r, "records accepted by "+p.name, resp.Accepted, n)
	r.post(p.url("/v1/flush"), nil, nil)
}

// tenantStats is the part of GET /v1/tenants/{name} the scenarios check.
type tenantStats struct {
	Processed  int64   `json:"processed"`
	SiteCounts []int64 `json:"site_counts"`
}

func (r *run) stats(p *proc, tenant string) tenantStats {
	var st tenantStats
	r.get(p.url("/v1/tenants/"+tenant), &st)
	return st
}

// wantCounts requires tenant's exact per-site arrival counts on p: nothing
// lost, nothing doubled.
func (r *run) wantCounts(p *proc, tenant string, counts ...int64) {
	if got := r.stats(p, tenant).SiteCounts; !slices.Equal(got, counts) {
		r.fail("%s site_counts on %s: got %v, want %v", tenant, p.name, got, counts)
	}
}

// health is the part of GET /healthz the scenarios check.
type health struct {
	Degraded  bool `json:"degraded"`
	TenantQoS map[string]struct {
		RateLimit float64 `json:"rate_limit"`
		Throttled int64   `json:"throttled"`
	} `json:"tenant_qos"`
	Durability *struct {
		RecoveredTenants int `json:"recovered_tenants"`
	} `json:"durability"`
	Membership struct {
		Epoch          uint64 `json:"epoch"`
		DurableCursors bool   `json:"durable_cursors"`
		CursorNodes    int    `json:"cursor_nodes"`
	} `json:"membership"`
}

func (r *run) health(p *proc) health {
	var h health
	r.get(p.url("/healthz"), &h)
	return h
}

// waitHealth polls p's /healthz for up to 10 s until cond holds.
func (r *run) waitHealth(p *proc, check string, cond func(health) bool) {
	for deadline := time.Now().Add(10 * time.Second); ; {
		h := r.health(p)
		if cond(h) {
			return
		}
		if time.Now().After(deadline) {
			_, raw := r.call(http.MethodGet, p.url("/healthz"), nil)
			r.fail("%s: /healthz never matched: %s", check, raw)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// metrics is one parsed /metrics scrape. scrape binds it to its run and
// endpoint, so a failed check names both.
type metrics struct {
	r     *run
	where string

	types   map[string]bool    // every family with a # TYPE line
	samples map[string]float64 // series as exposed, name{labels}, to value
}

func parseMetrics(text string) (metrics, error) {
	m := metrics{types: map[string]bool{}, samples: map[string]float64{}}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			m.types[name] = true
			continue
		}
		if line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return m, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return m, fmt.Errorf("metrics line %q: %v", line, err)
		}
		m.samples[line[:i]] = v
	}
	return m, nil
}

// scrape reads GET /metrics from addr; where names the endpoint in failures.
func (r *run) scrape(where, addr string) metrics {
	_, raw := r.call(http.MethodGet, "http://"+addr+"/metrics", nil)
	m, err := parseMetrics(string(raw))
	if err != nil {
		r.fail("%s: %v", where, err)
	}
	m.r, m.where = r, where
	return m
}

// families requires a # TYPE line for every name.
func (m metrics) families(names ...string) {
	for _, n := range names {
		if !m.types[n] {
			m.r.fail("%s missing family %s", m.where, n)
		}
	}
}

// exactlyOnce requires a coordinator's exactly-once identity after a
// flush: every record it accepted was processed by its tenant's tracker or
// counted lost. Only a coordinator that has not restarted satisfies it: a
// restart zeroes accepted, while replay brings processed back.
func (m metrics) exactlyOnce() {
	processed := 0.0
	for series, v := range m.samples {
		if strings.HasPrefix(series, "disttrack_cluster_processed_total{") {
			processed += v
		}
	}
	want(m.r, m.where+" accepted = processed + lost", m.samples["disttrack_ingest_accepted_total"],
		processed+m.samples["disttrack_ingest_lost_total"])
}

// want requires series to be exposed with value exp.
func (m metrics) want(series string, exp float64) {
	got, ok := m.samples[series]
	if !ok {
		m.r.fail("%s: no sample %s", m.where, series)
	}
	want(m.r, m.where+" "+series, got, exp)
}
