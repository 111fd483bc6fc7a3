// Package remote is disttrack's multi-tenant transport: the TCP link
// between cmd/trackd's site and coord roles, speaking a small
// length-prefixed binary protocol (stdlib net only; tproto.go, tclient.go,
// tserver.go).
//
// A site-node NodeClient pushes per-(tenant,site) value batches as TFrame
// streams to the coordinator's IngestServer, which deduplicates replays by
// per-node sequence number and acknowledges applied frames — at-least-once
// on the wire, exactly-once after deduplication, across any number of
// disconnects.
//
// The transport is fault-tolerant by construction (see internal/fault):
//
//   - NodeClient redials paced by one rule: capped, jittered exponential
//     backoff (a dead coordinator sees about one dial per RetryMax per node,
//     and no thundering herd after it restarts). NodeConfig.Dial lets tests
//     inject faults.
//   - IngestServer bounds every ack write with a deadline (a node that
//     stops reading cannot wedge its serve goroutine, which holds the
//     node's apply lock) and keeps a per-node breaker that refuses hellos
//     from nodes stuck in a reconnect-and-die loop.
//   - A disconnected node degrades, not fails: the coordinator keeps the
//     node's last applied state and serves queries from it, and
//     NodeStates reports which nodes are stale. Operations during faults
//     are covered in docs/operations.md.
package remote
