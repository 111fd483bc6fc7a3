package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrForwarderClosed is returned by Forwarder operations after Close.
var ErrForwarderClosed = errors.New("runtime: forwarder closed")

// ForwardFunc ships one accumulated per-(tenant,site) batch downstream. It
// may block (e.g. on a full transport window); that blocking is the
// backpressure path — it stalls the forwarder's single dispatch goroutine,
// the bounded dispatch queue fills, and Add blocks in turn. The callee
// takes ownership of values.
type ForwardFunc func(tenant string, site int, kind byte, values []uint64) error

// ForwarderConfig parameterizes a Forwarder.
type ForwarderConfig struct {
	// BatchSize flushes a (tenant,site) buffer once it holds this many
	// values (default 256).
	BatchSize int
	// MaxDelay bounds how long a nonempty buffer may wait for its batch to
	// fill before being flushed anyway (default 50ms).
	MaxDelay time.Duration
	// Queue is the dispatch queue capacity in batches (default 64). When
	// the downstream stalls, at most Queue batches buffer up before Add
	// blocks.
	Queue int
}

func (c ForwarderConfig) withDefaults() ForwarderConfig {
	if c.BatchSize < 1 {
		c.BatchSize = 256
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 50 * time.Millisecond
	}
	if c.Queue < 1 {
		c.Queue = 64
	}
	return c
}

// Forwarder turns a record-at-a-time producer into batched downstream
// sends: values accumulate per (tenant, site) and are flushed to the
// ForwardFunc when a buffer reaches BatchSize, when it has waited MaxDelay,
// or on an explicit Flush. A single dispatch goroutine preserves per-key
// order, and a bounded dispatch queue propagates downstream backpressure to
// producers instead of buffering unboundedly.
type Forwarder struct {
	cfg ForwarderConfig
	fn  ForwardFunc

	// sendMu serializes channel sends (read side) against Close (write
	// side): a sender holds the read lock across its send, so Close cannot
	// close the dispatch channel underneath it (same discipline as the
	// service ingester).
	sendMu sync.RWMutex
	closed bool

	bufMu sync.Mutex
	bufs  map[fwdKey]*fwdBuf

	ch   chan fwdBatch
	done chan struct{}
	wg   sync.WaitGroup

	batches atomic.Int64
	values  atomic.Int64
	errs    atomic.Int64
	lastErr atomic.Value
}

type fwdKey struct {
	tenant string
	site   int
}

type fwdBuf struct {
	kind  byte
	vals  []uint64
	since time.Time // when the oldest buffered value arrived
}

type fwdBatch struct {
	key     fwdKey
	kind    byte
	vals    []uint64
	barrier chan<- error
}

// NewForwarder starts a forwarder shipping batches through fn.
func NewForwarder(fn ForwardFunc, cfg ForwarderConfig) (*Forwarder, error) {
	if fn == nil {
		return nil, fmt.Errorf("runtime: ForwardFunc is required")
	}
	cfg = cfg.withDefaults()
	f := &Forwarder{
		cfg:  cfg,
		fn:   fn,
		bufs: make(map[fwdKey]*fwdBuf),
		ch:   make(chan fwdBatch, cfg.Queue),
		done: make(chan struct{}),
	}
	f.wg.Add(2)
	go f.dispatch()
	go f.tick()
	return f, nil
}

// Add accumulates one value for (tenant, site), flushing the buffer
// downstream when it reaches BatchSize. It blocks while the dispatch queue
// is full (downstream backpressure).
func (f *Forwarder) Add(tenant string, site int, kind byte, v uint64) error {
	return f.AddBatch(tenant, site, kind, []uint64{v})
}

// AddBatch accumulates values for (tenant, site). The forwarder copies from
// vs; the caller keeps ownership.
func (f *Forwarder) AddBatch(tenant string, site int, kind byte, vs []uint64) error {
	if len(vs) == 0 {
		return nil
	}
	f.sendMu.RLock()
	defer f.sendMu.RUnlock()
	if f.closed {
		return ErrForwarderClosed
	}
	key := fwdKey{tenant, site}
	f.bufMu.Lock()
	b := f.bufs[key]
	if b == nil {
		// Buffers start from the shared batch pool at full batch capacity,
		// so a buffer's append path never reallocates before it flushes.
		// Ownership of the flushed slice passes to the ForwardFunc callee;
		// callees that feed a Cluster recycle it automatically.
		b = &fwdBuf{kind: kind, since: time.Now(), vals: GetBatch(f.cfg.BatchSize)}
		f.bufs[key] = b
	}
	b.vals = append(b.vals, vs...)
	if len(b.vals) >= f.cfg.BatchSize {
		delete(f.bufs, key)
		// Sent under bufMu, like every enqueue (see enqueueOlder). Blocks
		// when the queue is full: backpressure.
		f.ch <- fwdBatch{key: key, kind: b.kind, vals: b.vals}
	}
	f.bufMu.Unlock()
	return nil
}

// Flush pushes every buffered value downstream and blocks until the
// dispatch goroutine has forwarded them all. It returns the first
// downstream error observed since the previous barrier, if any.
func (f *Forwarder) Flush() error {
	f.sendMu.RLock()
	defer f.sendMu.RUnlock()
	if f.closed {
		return ErrForwarderClosed
	}
	f.enqueueOlder(time.Time{})
	barrier := make(chan error, 1)
	f.ch <- fwdBatch{barrier: barrier}
	return <-barrier
}

// enqueueOlder removes every buffer whose oldest value predates cutoff (zero
// cutoff: all) and puts it on the dispatch queue, in deterministic key order.
//
// bufMu stays held across the sends, here and in AddBatch: taking a buffer
// out of bufs and enqueuing it are one step, so neither a newer batch of the
// same (tenant, site) nor a Flush barrier can enter the queue ahead of it.
// The dispatch goroutine never takes bufMu, so a full queue blocks the
// holder, and producers behind it on bufMu, until downstream drains.
func (f *Forwarder) enqueueOlder(cutoff time.Time) {
	f.bufMu.Lock()
	defer f.bufMu.Unlock()
	var out []fwdBatch
	for key, b := range f.bufs {
		if cutoff.IsZero() || b.since.Before(cutoff) {
			out = append(out, fwdBatch{key: key, kind: b.kind, vals: b.vals})
			delete(f.bufs, key)
		}
	}
	// Map iteration is unordered; fix a deterministic order so no key
	// systematically starves behind another.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && fwdLess(out[j].key, out[j-1].key); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	for _, batch := range out {
		f.ch <- batch
	}
}

func fwdLess(a, b fwdKey) bool {
	if a.tenant != b.tenant {
		return a.tenant < b.tenant
	}
	return a.site < b.site
}

// tick flushes buffers that have waited past MaxDelay.
func (f *Forwarder) tick() {
	defer f.wg.Done()
	t := time.NewTicker(f.cfg.MaxDelay)
	defer t.Stop()
	for {
		select {
		case <-f.done:
			return
		case <-t.C:
		}
		f.sendMu.RLock()
		if f.closed {
			f.sendMu.RUnlock()
			return
		}
		f.enqueueOlder(time.Now().Add(-f.cfg.MaxDelay))
		f.sendMu.RUnlock()
	}
}

// dispatch is the single downstream sender: per-key order is the order
// batches entered the queue, i.e. producer order.
func (f *Forwarder) dispatch() {
	defer f.wg.Done()
	var barrierErr error
	for batch := range f.ch {
		if batch.barrier != nil {
			batch.barrier <- barrierErr
			barrierErr = nil
			continue
		}
		if err := f.fn(batch.key.tenant, batch.key.site, batch.kind, batch.vals); err != nil {
			f.errs.Add(1)
			f.lastErr.Store(err)
			if barrierErr == nil {
				barrierErr = err
			}
			continue
		}
		f.batches.Add(1)
		f.values.Add(int64(len(batch.vals)))
	}
}

// Batches and Values return how many batches / values have been forwarded
// downstream successfully.
func (f *Forwarder) Batches() int64 { return f.batches.Load() }
func (f *Forwarder) Values() int64  { return f.values.Load() }

// Errors returns the downstream failure count and the most recent error.
func (f *Forwarder) Errors() (int64, error) {
	err, _ := f.lastErr.Load().(error)
	return f.errs.Load(), err
}

// Close flushes buffered values, stops the goroutines and rejects further
// use. Idempotent.
func (f *Forwarder) Close() error {
	f.sendMu.Lock()
	if f.closed {
		f.sendMu.Unlock()
		return nil
	}
	f.closed = true
	f.sendMu.Unlock()
	close(f.done)
	// No sender can be in flight past this point (they check closed under
	// the read lock), so draining and closing the channel is safe.
	f.enqueueOlder(time.Time{})
	close(f.ch)
	f.wg.Wait()
	return nil
}
