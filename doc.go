// Package disttrack is a from-scratch Go reproduction of
//
//	Ke Yi and Qin Zhang. "Optimal Tracking of Distributed Heavy Hitters
//	and Quantiles." PODS 2009 (arXiv:0812.0209).
//
// The library implements the paper's three continuous tracking protocols —
// φ-heavy hitters (Theorem 2.1), single φ-quantiles (Theorem 3.1), and all
// quantiles simultaneously (Theorem 4.1) — together with every substrate
// they stand on (Space-Saving and Greenwald–Khanna sketches, exact
// sorted-run site stores), the prior-art baselines they are measured
// against, the lower-bound constructions of Theorems 2.4 and 3.2, the §5
// randomized-sampling baseline, a concurrent runtime, and a multi-tenant
// tracking service whose site and coordinator nodes talk over TCP.
//
// Entry points:
//
//   - internal/core/hh, internal/core/quantile, internal/core/allq — the
//     paper's protocols (see each package's documentation);
//   - internal/service, cmd/trackd — the multi-tenant tracking service:
//     many named trackers behind a batched ingest path and an HTTP+JSON
//     query API (docs/service.md);
//   - cmd/experiments — regenerates every experiment table
//     (docs/architecture.md, "Experiments");
//   - Example (example_test.go) — the three trackers over one stream,
//     executed by go test.
//
// See README.md for an overview, quickstart and package map; each core
// package's doc comment maps its code to the paper's theorems and records
// deliberate deviations.
package disttrack
