// Package runtime runs a tracker as a concurrent cluster: one goroutine per
// site consuming batches from one per-site channel, over a shared
// coordinator.
//
// The paper's model assumes communication is instant and atomic — when an
// arrival triggers a message cascade, the cascade completes before the next
// arrival is processed. The paper's central result is that such cascades
// are rare: almost every arrival is absorbed by site-local counters. The
// cluster exploits exactly that split: k site goroutines ingest fully in
// parallel through the tracker's site-local fast path, and only the rare
// escalations serialize, inside the tracker itself (so do the tracker's own
// quiescent queries, which the cluster never makes). There is one way in:
// SendBatch hands a batch to its
// site's goroutine, which feeds it through FeedLocalBatch, amortizing the
// per-arrival lock and store costs over each escalation-free run. (For a
// deployment across real processes and sockets, see the remote package.)
//
// Each hop costs one plain channel operation per side: no select, and no
// look at a shared Done channel. Stopping is an atomic flag instead, set by
// Stop or, through context.AfterFunc, by cancelling New's context. A sender
// checks it before enqueueing; a site goroutine checks it before each
// batch and drops the batch, counted, when it is set, so a batch that has
// begun is always fed to the end and everything else is dropped. The site
// goroutines keep consuming their channels until Stop or Drain closes them,
// so a sender that enqueued just before the flag was set never blocks.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Tracker is the part of core.Tracker a running cluster depends on: its
// batched ingest entry point, safe for concurrent use with one goroutine per
// site. Whoever holds the tracker reads it through the tracker's own query
// surface (core.Tracker.Quiesce) while the cluster ingests.
type Tracker interface {
	FeedLocalBatch(site int, xs []uint64)
}

// ErrStopped is returned by SendBatch after the cluster has been stopped,
// drained or its context cancelled.
var ErrStopped = errors.New("runtime: cluster stopped")

// Cluster runs k site goroutines feeding a shared tracker. A batch a site
// has begun is fed to the end; once the cluster is stopped (Stop, or New's
// context cancelled) every batch not yet begun is dropped and counted.
type Cluster struct {
	tr Tracker

	batches   []chan []uint64 // one queue per site; its length is the site count
	wg        sync.WaitGroup
	stopped   atomic.Bool // set by Stop, a cancelled context or a finished Drain
	unwatch   func() bool // releases the context.AfterFunc watching New's ctx
	processed atomic.Int64
	batched   atomic.Int64
	dropped   atomic.Int64
	closeOnce sync.Once
}

// New starts a cluster of k sites over tr. buf is the per-site channel
// capacity in batches (≥ 1). Cancelling ctx stops the cluster as Stop does,
// except that nothing waits for the site goroutines: call Stop (or Drain)
// when done either way.
func New(ctx context.Context, tr Tracker, k, buf int) (*Cluster, error) {
	if k < 1 {
		return nil, fmt.Errorf("runtime: k must be >= 1, got %d", k)
	}
	if buf < 1 {
		buf = 1
	}
	c := &Cluster{tr: tr}
	c.unwatch = context.AfterFunc(ctx, func() { c.stopped.Store(true) })
	for j := 0; j < k; j++ {
		// buf batches of slack let the producer run ahead of the site
		// goroutine (the service's -site-buffer).
		ch := make(chan []uint64, buf)
		c.batches = append(c.batches, ch)
		c.wg.Add(1)
		go c.site(j, ch)
	}
	return c, nil
}

// site is the per-site goroutine: it feeds each batch of its local stream
// through the tracker's amortized FeedLocalBatch — one site lock and one
// store bulk-insert per escalation-free run — until its channel is closed.
// Once the cluster is stopped it drops each batch instead (counting its
// values), so senders caught mid-enqueue never block. Batch slices are
// returned to the shared batch pool either way — SendBatch transfers
// ownership to the cluster.
func (c *Cluster) site(j int, ch <-chan []uint64) {
	defer c.wg.Done()
	for xs := range ch {
		if c.stopped.Load() {
			c.dropped.Add(int64(len(xs)))
		} else {
			c.tr.FeedLocalBatch(j, xs)
			c.processed.Add(int64(len(xs)))
			c.batched.Add(1)
		}
		PutBatch(xs)
	}
}

// SendBatch delivers a batch of arrivals to a site's ingestion queue in one
// channel operation; the site processes the whole batch without per-item
// synchronization. The cluster takes ownership of xs — the caller must not
// reuse the slice (it is recycled through the batch pool once processed).
// Empty batches are a no-op. It blocks while the queue is full and returns
// ErrStopped after cancellation, Stop or Drain. A batch it accepts is
// counted exactly once, as Processed or as Dropped.
func (c *Cluster) SendBatch(site int, xs []uint64) error {
	if site < 0 || site >= len(c.batches) {
		return fmt.Errorf("runtime: site %d out of range [0,%d)", site, len(c.batches))
	}
	if len(xs) == 0 {
		return nil
	}
	if c.stopped.Load() {
		return ErrStopped
	}
	c.batches[site] <- xs
	return nil
}

// Drain closes the ingestion queues and waits for the sites to finish
// processing everything already sent (unless the context is cancelled
// meanwhile, which drops what is not yet begun). SendBatch must not be
// called concurrently with Drain; after it, SendBatch returns ErrStopped.
func (c *Cluster) Drain() {
	c.close()
	c.stopped.Store(true)
}

// Stop stops the cluster: each site finishes the batch it has begun, every
// batch not yet begun is dropped and counted in Stats, and Stop returns once
// the site goroutines have exited. SendBatch must not be called concurrently
// with Stop; after it, SendBatch returns ErrStopped.
func (c *Cluster) Stop() {
	c.stopped.Store(true)
	c.close()
}

// close closes the site queues once and waits for the site goroutines to
// consume them.
func (c *Cluster) close() {
	c.closeOnce.Do(func() {
		for _, ch := range c.batches {
			close(ch)
		}
	})
	c.wg.Wait()
	c.unwatch()
}

// Stats is a point-in-time snapshot of the cluster's ingestion counters.
type Stats struct {
	Processed int64 // arrivals fully fed to the tracker
	Batches   int64 // batch deliveries processed
	Dropped   int64 // arrivals discarded unbegun by Stop or cancellation
}

// Stats returns the current ingestion counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		Processed: c.processed.Load(),
		Batches:   c.batched.Load(),
		Dropped:   c.dropped.Load(),
	}
}

// Processed returns how many arrivals have been fully processed.
func (c *Cluster) Processed() int64 { return c.processed.Load() }

// Dropped returns how many arrivals were discarded unbegun by Stop or
// cancellation.
func (c *Cluster) Dropped() int64 { return c.dropped.Load() }

// K returns the number of sites.
func (c *Cluster) K() int { return len(c.batches) }

// QueueDepth returns the number of batches queued across all site channels
// — at most k times the per-site buffer. Safe for concurrent use; the value
// is inherently racy against the site goroutines, which is fine for a gauge.
func (c *Cluster) QueueDepth() int {
	n := 0
	for _, ch := range c.batches {
		n += len(ch)
	}
	return n
}
