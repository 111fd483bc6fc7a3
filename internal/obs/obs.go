// Package obs is the repo's zero-dependency metrics plane: atomic counters,
// gauges and fixed-bucket histograms with consistent label support, grouped
// into a Registry that serializes to the Prometheus text exposition format
// (expo.go). go.mod stays stdlib-only — this is deliberately the small
// subset of a metrics client the tracking stack needs, not a general
// library.
//
// # Model
//
// A Registry owns metric families. A family has a name, a help string, a
// type, and a fixed set of label names; its children are the concrete
// metrics, one per distinct label-value tuple, created on demand with
// Vec.With and resolved exactly once by hot paths (a child is a bare
// atomic — no map lookup, no lock on the update path). Families with no
// labels expose their single child directly (NewCounter/NewGauge/
// NewHistogram).
//
// # Concurrency
//
// Counter, Gauge and Histogram updates are lock-free atomics, safe for
// concurrent use and cheap enough for fast paths (one atomic add). Vec.With
// takes the family lock and is meant for construction time, not per event.
// Exposition takes a read lock per family and reads the atomics without
// stopping writers — a scrape observes each sample at some point during the
// scrape, which is all Prometheus asks.
//
// # Func-backed metrics
//
// A count another component already keeps (a cluster's processed
// arrivals, a transport's byte totals) is not copied: NewCounterFunc,
// NewGaugeFunc and the vectors' WithFunc export it by calling a read
// function at exposition, so the series is exactly the owner's value and
// there is no copy to fall behind or to rebase.
//
// # Scrape hooks
//
// Sources that need more than a read function (a wire.Meter read under
// protocol quiescence, a label set discovered at scrape time) register a
// hook with Registry.OnScrape; hooks run serialized immediately before each
// exposition. Hook state therefore needs no locking of its own.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricType is the family's exposition TYPE.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// Registry owns a set of metric families and the scrape hooks that refresh
// them. The zero value is not usable; create one with NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family

	// hookMu serializes hook execution across concurrent scrapes, so hook
	// mirror state (deltas against an external monotone source) needs no
	// locking of its own.
	hookMu sync.Mutex
	hooks  []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// OnScrape registers fn to run (serialized) before every exposition. Hooks
// mirror externally-owned counters into stored metrics; they must not call
// back into exposition.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, fn)
}

// WithHookLock runs fn under the hook-serialization lock, mutually excluded
// with scrape hooks. Use it to mutate state a hook also owns (e.g. dropping
// a deleted entity's mirror state) from outside the scrape path.
func (r *Registry) WithHookLock(fn func()) {
	r.hookMu.Lock()
	defer r.hookMu.Unlock()
	fn()
}

// runHooks runs all scrape hooks under the hook lock.
func (r *Registry) runHooks() {
	r.hookMu.Lock()
	defer r.hookMu.Unlock()
	r.mu.RLock()
	hooks := r.hooks
	r.mu.RUnlock()
	for _, fn := range hooks {
		fn()
	}
}

// family is one named metric family with a fixed label schema.
type family struct {
	name   string
	help   string
	typ    metricType
	labels []string
	bounds []float64 // histogram bucket upper bounds (exclusive of +Inf)

	mu       sync.RWMutex
	children map[string]*child
	keys     []string // sorted lazily at exposition
}

// child is one concrete metric: a label-value tuple plus its atomics. The
// same struct backs all three types; unused fields stay nil/zero.
type child struct {
	labelValues []string

	val       atomic.Int64 // counter value
	counterFn func() int64 // func-backed counter: read at exposition instead of val

	bits    atomic.Uint64  // gauge value (float64 bits)
	gaugeFn func() float64 // func-backed gauge: read at exposition instead of bits

	// histogram: per-bucket (non-cumulative) counts, one extra for +Inf;
	// cumulated at exposition so Observe touches a single slot.
	buckets []atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-added
}

// register validates and installs a new family, panicking on programmer
// error (duplicate or malformed names) — metric registration happens at
// construction time, where a panic is a build break, not a runtime hazard.
func (r *Registry) register(name, help string, typ metricType, labels []string, bounds []float64) *family {
	mustValidName(name)
	for _, l := range labels {
		mustValidName(l)
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   labels,
		bounds:   bounds,
		children: make(map[string]*child),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.families[name] = f
	return f
}

func mustValidName(name string) {
	if name == "" {
		panic("obs: empty metric or label name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				panic(fmt.Sprintf("obs: name %q starts with a digit", name))
			}
		default:
			panic(fmt.Sprintf("obs: invalid character %q in name %q", c, name))
		}
	}
}

// childKey joins label values with an unprintable separator; label values
// are arbitrary strings, so the separator only needs to be unlikely, and
// \xff never appears in valid UTF-8.
func childKey(values []string) string { return strings.Join(values, "\xff") }

// checkArity panics unless values has one entry per label of the family.
func (f *family) checkArity(values []string) {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
}

// with returns (creating on first use) the child for a label-value tuple.
func (f *family) with(values []string) *child {
	f.checkArity(values)
	key := childKey(values)
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.children[key]; c != nil {
		return c
	}
	c = &child{labelValues: append([]string(nil), values...)}
	if f.typ == typeHistogram {
		c.buckets = make([]atomic.Int64, len(f.bounds)+1)
	}
	f.children[key] = c
	f.keys = nil // resorted at next exposition
	return c
}

// bind installs c as the child for a label-value tuple, replacing any child
// already there. Func-backed children are bound this way: rebinding points
// the series at a new owner (a tenant recreated under the same name).
func (f *family) bind(values []string, c *child) {
	f.checkArity(values)
	c.labelValues = append([]string(nil), values...)
	key := childKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.children[key]; !ok {
		f.keys = nil // resorted at next exposition
	}
	f.children[key] = c
}

// remove drops the child for a label-value tuple, reporting whether it
// existed. Used when a labeled entity (a tenant) is deleted, so its series
// stop being exported and the family does not grow without bound.
func (f *family) remove(values []string) bool {
	key := childKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.children[key]; !ok {
		return false
	}
	delete(f.children, key)
	f.keys = nil
	return true
}

// sortedKeys returns the children keys in sorted order (cached between
// child-set changes) for deterministic exposition.
func (f *family) sortedKeys() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.keys == nil {
		f.keys = make([]string, 0, len(f.children))
		for k := range f.children {
			f.keys = append(f.keys, k)
		}
		sort.Strings(f.keys)
	}
	return f.keys
}

// ---------------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing count. Safe for concurrent use; an
// update is one atomic add, cheap enough for ingest fast paths.
type Counter struct{ c *child }

// Inc adds 1.
func (c *Counter) Inc() { c.c.val.Add(1) }

// Add adds n, which must be >= 0 (counters are monotone; negative deltas
// are silently dropped rather than corrupting the series).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.c.val.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.c.val.Load() }

// CounterVec is a counter family with labels; resolve children once with
// With and update them lock-free.
type CounterVec struct{ f *family }

// With returns the counter for a label-value tuple, creating it on first
// use. Resolve once at construction time — With takes the family lock.
func (v *CounterVec) With(values ...string) *Counter { return &Counter{v.f.with(values)} }

// WithFunc exports fn's value as the series for a label-value tuple,
// replacing any series already there. fn is called at every exposition
// and must be monotone and safe for concurrent use. Remove drops it like
// any other series.
func (v *CounterVec) WithFunc(fn func() int64, values ...string) {
	v.f.bind(values, &child{counterFn: fn})
}

// Remove drops the series for a label-value tuple (e.g. a deleted tenant).
func (v *CounterVec) Remove(values ...string) bool { return v.f.remove(values) }

// NewCounter registers an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(name, help, typeCounter, nil, nil)
	return &Counter{f.with(nil)}
}

// NewCounterFunc registers an unlabeled counter whose value is fn's, read
// at every exposition — for a count its owner already keeps. fn must be
// monotone and safe for concurrent use.
func (r *Registry) NewCounterFunc(name, help string, fn func() int64) {
	r.register(name, help, typeCounter, nil, nil).bind(nil, &child{counterFn: fn})
}

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, typeCounter, labels, nil)}
}

// ---------------------------------------------------------------------------
// Gauge

// Gauge is a value that can go up and down. Safe for concurrent use.
type Gauge struct{ c *child }

// Set stores v.
func (g *Gauge) Set(v float64) { g.c.bits.Store(math.Float64bits(v)) }

// SetInt stores an integer value (the common case for depths and counts).
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Add adds d (CAS loop; gauges are not fast-path metrics).
func (g *Gauge) Add(d float64) {
	for {
		old := g.c.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.c.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.c.bits.Load()) }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for a label-value tuple, creating it on first use.
func (v *GaugeVec) With(values ...string) *Gauge { return &Gauge{v.f.with(values)} }

// WithFunc exports fn's value as the series for a label-value tuple,
// replacing any series already there; fn is called at every exposition.
func (v *GaugeVec) WithFunc(fn func() float64, values ...string) {
	v.f.bind(values, &child{gaugeFn: fn})
}

// Remove drops the series for a label-value tuple.
func (v *GaugeVec) Remove(values ...string) bool { return v.f.remove(values) }

// NewGauge registers an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.register(name, help, typeGauge, nil, nil)
	return &Gauge{f.with(nil)}
}

// NewGaugeVec registers a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, typeGauge, labels, nil)}
}

// NewGaugeFunc registers a gauge sampled by calling fn at scrape time —
// for values that are cheap to read but wasteful to mirror continuously
// (uptime, queue lengths owned elsewhere).
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, typeGauge, nil, nil).bind(nil, &child{gaugeFn: fn})
}

// ---------------------------------------------------------------------------
// Histogram

// Histogram is a fixed-bucket distribution. Observe is one atomic add on
// the owning bucket plus a CAS on the sum; bucket counts are kept
// non-cumulative internally and cumulated at exposition.
type Histogram struct {
	bounds []float64
	c      *child
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.c.buckets[i].Add(1)
	for {
		old := h.c.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.c.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the total number of samples.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.c.buckets {
		n += h.c.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.c.sumBits.Load()) }

// HistogramVec is a histogram family with labels; all children share the
// family's bucket bounds.
type HistogramVec struct {
	f *family
}

// With returns the histogram for a label-value tuple, creating it on first
// use.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{bounds: v.f.bounds, c: v.f.with(values)}
}

// Remove drops the series for a label-value tuple.
func (v *HistogramVec) Remove(values ...string) bool { return v.f.remove(values) }

// NewHistogram registers an unlabeled histogram with the given bucket
// upper bounds (must be sorted ascending; +Inf is implicit).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	f := r.register(name, help, typeHistogram, nil, checkBounds(name, bounds))
	return &Histogram{bounds: f.bounds, c: f.with(nil)}
}

// NewHistogramVec registers a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, typeHistogram, labels, checkBounds(name, bounds))}
}

func checkBounds(name string, bounds []float64) []float64 {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly ascending", name))
		}
	}
	return append([]float64(nil), bounds...)
}

// ExpBuckets returns n bucket bounds starting at start, each factor times
// the previous — the standard shape for latencies and sizes.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// DurationBuckets is the default bound set for the stack's duration
// histograms: 1µs to ~4s, factor 4 — wide enough to catch both the
// nanosecond-scale slow-path holds and a wedged flush.
func DurationBuckets() []float64 { return ExpBuckets(1e-6, 4, 12) }

// SizeBuckets is the default bound set for batch/record-count histograms:
// 1 to ~262k items, factor 4.
func SizeBuckets() []float64 { return ExpBuckets(1, 4, 10) }
