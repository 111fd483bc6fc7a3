package runtime

import (
	"sync"
	"sync/atomic"
)

// MinPooledCap keeps tiny one-off slices out of the pool: recycling them
// would pin undersized buffers that immediately reallocate on reuse. It is
// exported so producers can tell which batches are worth drawing from the
// pool at all: a smaller one would not come back.
const MinPooledCap = 64

// maxPooledCap keeps huge one-off slices out of the pool: the remote
// transport decodes frames of up to 2^20 values into pooled slices, and
// without an upper bound a peer sending near-limit batches would leave
// multi-megabyte backing arrays circulating among the 16-value groups the
// service's grouper draws. Oversized slices fall back to the garbage collector.
const maxPooledCap = 1 << 16

// batchPool recycles the value-batch slices that flow through the ingest
// hot path (service ingester → tenant cluster → site goroutine). SendBatch
// transfers slice ownership to the cluster, and the site goroutine is the
// final consumer — the trackers copy what they keep — so the cluster
// returns every processed batch here and producers allocate from it,
// making steady-state batched ingest allocation-free.
//
// The pool stores *[]uint64 (not []uint64) so Put does not allocate a
// fresh interface box for the slice header on every cycle; the headers
// themselves cycle through headerPool (GetBatch retires one, PutBatch reuses
// it), so a steady-state Get/Put pair allocates nothing at all.
var batchPool = sync.Pool{
	New: func() any {
		s := make([]uint64, 0, 256)
		return &s
	},
}

var headerPool = sync.Pool{New: func() any { return new([]uint64) }}

// batchesOut counts GetBatch calls minus PutBatch calls: see BatchesOut.
var batchesOut atomic.Int64

// BatchesOut returns how many batches have been drawn with GetBatch and not
// (yet) returned with PutBatch, process-wide. Owners may legitimately leave a
// batch to the garbage collector, or return a slice of their own making (it
// counts if it is at least MinPooledCap long), so the level means nothing by
// itself; its change across a quiet stretch of code is how a test shows that
// every path through that code — error paths above all — returns what it
// drew.
func BatchesOut() int64 { return batchesOut.Load() }

// GetBatch returns an empty value slice with at least the given capacity,
// reusing a pooled buffer when one is available. The slice is owned by the
// caller until handed to Cluster.SendBatch (or returned with PutBatch).
func GetBatch(capacity int) []uint64 {
	batchesOut.Add(1)
	p := batchPool.Get().(*[]uint64)
	if s := *p; cap(s) >= capacity {
		*p = nil
		headerPool.Put(p)
		return s[:0]
	}
	// Undersized for this caller: return it for others rather than
	// draining the pool one oversized request at a time.
	batchPool.Put(p)
	return make([]uint64, 0, capacity)
}

// PutBatch returns a batch slice to the pool. Callers must have exclusive
// ownership; the slice contents may be overwritten at any time afterwards.
// Slices outside the pooled capacity band are dropped.
func PutBatch(xs []uint64) {
	if cap(xs) < MinPooledCap {
		return // not from GetBatch, which hands out nothing this small
	}
	batchesOut.Add(-1)
	if cap(xs) > maxPooledCap {
		return
	}
	p := headerPool.Get().(*[]uint64)
	*p = xs[:0]
	batchPool.Put(p)
}
