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
// escalations and the queries (the tracker's own Quiesce) serialize, inside
// the tracker itself. There is one way in: SendBatch hands a batch to its
// site's goroutine, which feeds it through FeedLocalBatch, amortizing the
// per-arrival lock and store costs over each escalation-free run. (For a
// deployment across real processes and sockets, see the remote package.)
package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Tracker is the half of core.Tracker a running cluster depends on.
// FeedLocalBatch is the ingest side: safe for concurrent use with one
// goroutine per site, returning the batch indices that escalated. Quiesce is
// the query side of the same contract: whoever holds the tracker reads it
// consistently while the cluster ingests by running f with every site's
// fast path excluded (the cluster itself never calls it).
type Tracker interface {
	FeedLocalBatch(site int, xs []uint64) (escalations []int)
	Quiesce(f func())
}

// ErrStopped is returned by SendBatch after the cluster has been stopped or
// its context cancelled.
var ErrStopped = errors.New("runtime: cluster stopped")

// Cluster runs k site goroutines feeding a shared tracker.
type Cluster struct {
	tr Tracker

	batches     []chan []uint64 // one queue per site; its length is the site count
	wg          sync.WaitGroup
	ctx         context.Context
	cancel      context.CancelFunc
	processed   atomic.Int64
	batched     atomic.Int64
	dropped     atomic.Int64
	escalations atomic.Int64
	stopOnce    sync.Once
}

// New starts a cluster of k sites over tr. buf is the per-site channel
// capacity in batches (≥ 1). Always call Stop (or Drain) when done.
func New(ctx context.Context, tr Tracker, k, buf int) (*Cluster, error) {
	if k < 1 {
		return nil, fmt.Errorf("runtime: k must be >= 1, got %d", k)
	}
	if buf < 1 {
		buf = 1
	}
	cctx, cancel := context.WithCancel(ctx)
	c := &Cluster{tr: tr, ctx: cctx, cancel: cancel}
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
// store bulk-insert per escalation-free run. Batch slices are returned to
// the shared batch pool once processed — SendBatch transfers ownership to
// the cluster.
func (c *Cluster) site(j int, ch <-chan []uint64) {
	defer c.wg.Done()
	for {
		// Check cancellation first: when both the queue and Done are ready,
		// select picks randomly, and Stop promises queued items are dropped
		// rather than raced against.
		select {
		case <-c.ctx.Done():
			return
		default:
		}
		select {
		case <-c.ctx.Done():
			return
		case xs, ok := <-ch:
			if !ok {
				return
			}
			c.escalations.Add(int64(len(c.tr.FeedLocalBatch(j, xs))))
			c.processed.Add(int64(len(xs)))
			c.batched.Add(1)
			PutBatch(xs)
		}
	}
}

// SendBatch delivers a batch of arrivals to a site's ingestion queue in one
// channel operation; the site processes the whole batch without per-item
// synchronization. The cluster takes ownership of xs — the caller must not
// reuse the slice (it is recycled through the batch pool once processed).
// Empty batches are a no-op. It blocks while the queue is full and returns
// ErrStopped after cancellation or Stop.
func (c *Cluster) SendBatch(site int, xs []uint64) error {
	if site < 0 || site >= len(c.batches) {
		return fmt.Errorf("runtime: site %d out of range [0,%d)", site, len(c.batches))
	}
	if len(xs) == 0 {
		return nil
	}
	// Check cancellation first: when both the queue and Done are ready,
	// select would pick randomly, and an enqueue after Stop would be
	// silently dropped.
	select {
	case <-c.ctx.Done():
		return ErrStopped
	default:
	}
	select {
	case <-c.ctx.Done():
		return ErrStopped
	case c.batches[site] <- xs:
		return nil
	}
}

// Drain closes the ingestion queues and waits for the sites to finish
// processing everything already sent. SendBatch must not be called
// concurrently with or after Drain.
func (c *Cluster) Drain() {
	c.stopOnce.Do(func() {
		for _, ch := range c.batches {
			close(ch)
		}
	})
	c.wg.Wait()
	c.cancel()
}

// Stop cancels processing immediately, dropping anything still queued, and
// waits for the site goroutines to exit. Dropped arrivals are counted in
// Stats. SendBatch must not be called concurrently with Stop (late senders
// get ErrStopped; their items are not counted as dropped).
func (c *Cluster) Stop() {
	c.cancel()
	c.wg.Wait()
	c.stopOnce.Do(func() {
		for _, ch := range c.batches {
			close(ch)
		}
	})
	for _, ch := range c.batches {
		for xs := range ch {
			c.dropped.Add(int64(len(xs)))
		}
	}
}

// Stats is a point-in-time snapshot of the cluster's ingestion counters.
type Stats struct {
	Processed   int64 // arrivals fully fed to the tracker
	Batches     int64 // batch deliveries processed
	Dropped     int64 // queued arrivals discarded by Stop
	Escalations int64 // fast-path arrivals that required coordinator work
}

// Stats returns the current ingestion counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		Processed:   c.processed.Load(),
		Batches:     c.batched.Load(),
		Dropped:     c.dropped.Load(),
		Escalations: c.escalations.Load(),
	}
}

// Processed returns how many arrivals have been fully processed.
func (c *Cluster) Processed() int64 { return c.processed.Load() }

// Dropped returns how many queued arrivals were discarded by Stop.
func (c *Cluster) Dropped() int64 { return c.dropped.Load() }

// Escalations returns how many fast-path arrivals escalated to the
// coordinator slow path.
func (c *Cluster) Escalations() int64 { return c.escalations.Load() }

// K returns the number of sites.
func (c *Cluster) K() int { return len(c.batches) }
