// Package service is the multi-tenant serving layer over the paper's
// tracking protocols: a registry of named tracker instances (any mix of
// heavy-hitter, quantile and all-quantile tenants, each running inside a
// runtime.Cluster), a batched ingest path, and an HTTP+JSON query API.
// cmd/trackd is the daemon entry point; docs/service.md documents the wire
// protocol.
//
// # Data flow
//
// Clients POST batches of (tenant, site, value) records. The ingest call
// validates them, groups them per (tenant, site) and — still in the caller's
// goroutine — hands each tenant's groups to its cluster via the batched
// SendBatch path: one channel operation and one protocol-lock acquisition
// per group instead of per record. A record crosses exactly one queue, its
// site's channel; the tenant's k site goroutines are the only goroutines the
// service runs on the ingest side, which is the paper's picture of k sites
// and one coordinator. Each tenant has a delivery gate (a mutex) that an
// ingest call holds while it perturbs, logs and sends that tenant's groups,
// so per-tenant state (symbolic perturbation for the quantile protocols, the
// WAL) is single-writer however many callers there are, and the call's
// acknowledgement follows the WAL append. Queries are served from the
// coordinator's state under the cluster's query lock and never wait behind
// queued ingest.
//
// In the distributed deployment the same path terminates the multi-tenant
// TCP transport: RemoteIngest (coord role) feeds decoded remote.TFrame
// batches through IngestGrouped, and SiteNode (site role) batches local
// records and pushes them upstream through a remote.NodeClient.
//
// # Admission control
//
// Tenants may carry per-tenant QoS limits (TenantConfig.RateLimit,
// RateBurst, QueueShare): a token-bucket rate limit on admitted records
// and a bound on the tenant's admitted-but-unapplied records, so a tenant
// driven far over its rate is throttled instead of blocking its callers.
// Throttled records answer 429 with a Retry-After hint on the HTTP edge
// and are dropped with visible accounting on the TCP edge (the frame is
// still acked — a reject would make the sender discard it as invalid).
// docs/operations.md is the operator-facing guide to these knobs and the
// fault-tolerance machinery around them.
package service
