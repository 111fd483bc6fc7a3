package runtime

import "disttrack/internal/obs"

// ClusterMetrics mirrors a Cluster's ingestion counters into obs metrics.
// The counter fields receive deltas against the last sync (so the exported
// series are valid monotone Prometheus counters); QueueDepth, when set, is
// refreshed with the cluster's current total of queued batches. Any field
// may be nil.
//
// Sync is not safe for concurrent use with itself — run it from an obs
// scrape hook, which the registry serializes.
type ClusterMetrics struct {
	Processed  *obs.Counter // arrivals fully fed to the tracker
	Batches    *obs.Counter // batch deliveries processed
	Dropped    *obs.Counter // queued arrivals discarded by Stop
	QueueDepth *obs.Gauge   // batches currently queued across sites

	last Stats
}

// SyncMetrics mirrors the cluster's current counters into m.
func (c *Cluster) SyncMetrics(m *ClusterMetrics) {
	cur := c.Stats()
	if m.Processed != nil {
		m.Processed.Add(cur.Processed - m.last.Processed)
	}
	if m.Batches != nil {
		m.Batches.Add(cur.Batches - m.last.Batches)
	}
	if m.Dropped != nil {
		m.Dropped.Add(cur.Dropped - m.last.Dropped)
	}
	m.last = cur
	if m.QueueDepth != nil {
		m.QueueDepth.SetInt(int64(c.QueueDepth()))
	}
}

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
