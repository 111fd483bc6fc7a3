// Package fault is the stdlib-only fault-tolerance toolkit for the
// service/remote plane: the mechanisms that keep a coordinator serving when
// site nodes die or flap, and pace a site node's redials. It has three
// independent pieces, composed by internal/remote and internal/service (see
// docs/operations.md for the operator's view):
//
//   - Breaker: a circuit breaker with the classic closed → open → half-open
//     state machine. Consecutive failures trip it open; after OpenTimeout it
//     admits a single half-open probe; a successful probe closes it again.
//     The coordinator runs one per site node to refuse the handshakes of a
//     node whose connections keep dying before they make progress.
//
//   - Backoff: jittered exponential backoff delays, the one rule that paces
//     a site node's redials. Jitter decorrelates the retry times of many
//     clients that observed the same failure at the same instant (the
//     thundering-herd reconnect); the cap bounds a dead coordinator's dial
//     rate.
//
//   - Limiter: a token-bucket rate limiter with a retry-after estimate, the
//     admission-control primitive behind the service's per-tenant QoS
//     (HTTP 429 + Retry-After; silent drop accounting on the TCP edge).
//
// An Injector is also provided for tests: it wraps a net.Conn and induces
// errors or a full partition on demand, so the redial and resync machinery
// can be exercised deterministically against real connections.
//
// The breaker's and limiter's clocks are injectable (BreakerConfig.Now,
// Limiter.SetClock) and the backoff's jitter source (Backoff.Rand), so the
// state machines are testable without sleeping; zero configs take
// production-sensible defaults.
package fault
