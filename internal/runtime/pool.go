package runtime

import "sync"

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

// GetBatch returns an empty value slice with at least the given capacity,
// reusing a pooled buffer when one is available. The slice is owned by the
// caller until handed to Cluster.SendBatch (or returned with PutBatch).
func GetBatch(capacity int) []uint64 {
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
	if cap(xs) < MinPooledCap || cap(xs) > maxPooledCap {
		return
	}
	p := headerPool.Get().(*[]uint64)
	*p = xs[:0]
	batchPool.Put(p)
}
