package service

import (
	"time"

	"disttrack/internal/durable"
)

// Config parameterizes a Server.
type Config struct {
	// SiteBuffer is the per-site ingestion channel capacity of each
	// tenant's runtime.Cluster, in batches (default 128). Ingest blocks while
	// the site's channel is full — backpressure rather than unbounded
	// buffering.
	SiteBuffer int

	// NodeBreakerFailures is how many consecutive no-progress connections
	// from one site node trip its reconnect breaker (default 5; coord role
	// only). While tripped, the node's handshakes are refused until
	// NodeBreakerOpenTimeout elapses.
	NodeBreakerFailures int
	// NodeBreakerOpenTimeout is how long a tripped per-node breaker holds
	// off before admitting a probe connection (default 5s; coord role
	// only).
	NodeBreakerOpenTimeout time.Duration

	// DataDir enables the durable plane: per-tenant ingest WALs and
	// periodic checkpoints under this directory, with crash recovery on
	// the next Open (see docs/durability.md). Empty disables durability
	// entirely — no WAL, no checkpoints, and the ingest path takes no new
	// locks. Only Open honors it; New always runs without durability.
	DataDir string
	// CheckpointInterval is the per-tenant checkpoint cadence (default
	// 30s; needs DataDir).
	CheckpointInterval time.Duration
	// Fsync is the WAL sync policy (default durable.FsyncInterval, at most
	// one sync per 100ms; needs DataDir).
	Fsync durable.FsyncMode
}

func (c Config) withDefaults() Config {
	if c.SiteBuffer < 1 {
		c.SiteBuffer = 128
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 30 * time.Second
	}
	// The remote fault knobs keep their zero values here: the remote and
	// fault packages apply their own defaults, and repeating the numbers
	// would let the two drift apart.
	return c
}
