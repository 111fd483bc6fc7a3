package fault

import (
	"fmt"
	"sync"
	"time"
)

// State is a Breaker's position in the closed → open → half-open machine.
type State int32

const (
	// StateClosed: calls flow; consecutive failures are counted.
	StateClosed State = iota
	// StateOpen: calls are refused until OpenTimeout has elapsed.
	StateOpen
	// StateHalfOpen: one probe call at a time is admitted; a successful
	// probe closes the breaker, a failed one reopens it.
	StateHalfOpen
)

// String returns the state's exposition name (used in healthz and logs).
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// BreakerConfig parameterizes a Breaker (zero values take defaults).
type BreakerConfig struct {
	// FailureThreshold is how many consecutive failures trip the breaker
	// open (default 5).
	FailureThreshold int
	// OpenTimeout is how long the breaker stays open before admitting a
	// half-open probe (default 5s).
	OpenTimeout time.Duration
	// Now is the clock (default time.Now); injectable for tests.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold < 1 {
		c.FailureThreshold = 5
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = 5 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// BreakerStats is a point-in-time snapshot of a Breaker.
type BreakerStats struct {
	State     State  `json:"-"`
	StateName string `json:"state"`
	Failures  int    `json:"consecutive_failures"`
	Trips     int64  `json:"trips"`  // closed/half-open → open transitions
	Probes    int64  `json:"probes"` // half-open probe calls admitted
}

// Breaker is a circuit breaker: it watches a caller-reported
// success/failure stream and refuses calls while the guarded dependency
// looks dead, so callers fail fast instead of piling onto a sick peer.
// Recovery is automatic: after OpenTimeout one probe is admitted, and a
// successful probe re-closes the breaker.
//
// Callers use the Allow/OnSuccess/OnFailure triple around their own call.
// Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State
	failures int       // consecutive failures (closed) / probe failures trigger
	openedAt time.Time // when the breaker last tripped
	probing  bool      // a half-open probe is in flight
	trips    int64
	probes   int64
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether a call may proceed now. Callers that receive true
// MUST report the outcome with OnSuccess or OnFailure — in half-open state
// the admitted call is the probe, and the breaker holds further probes
// until its outcome is known.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		return true
	case StateOpen:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.OpenTimeout {
			return false
		}
		b.state = StateHalfOpen
		b.probing = true
		b.probes++
		return true
	default: // StateHalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		b.probes++
		return true
	}
}

// OnSuccess reports a successful call: it resets the failure streak
// (closed) or, for the half-open probe, closes the breaker.
func (b *Breaker) OnSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	switch b.state {
	case StateClosed:
		b.failures = 0
	case StateHalfOpen:
		b.state = StateClosed
		b.failures = 0
	case StateOpen:
		// A call admitted before the trip finished after it: the success is
		// stale evidence; stay open until the timeout probes properly.
	}
}

// OnFailure reports a failed call: it extends the failure streak and trips
// the breaker when the streak reaches FailureThreshold (closed) — or
// immediately on a failed half-open probe.
func (b *Breaker) OnFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	b.failures++
	switch b.state {
	case StateClosed:
		if b.failures >= b.cfg.FailureThreshold {
			b.tripLocked()
		}
	case StateHalfOpen:
		b.tripLocked()
	case StateOpen:
		b.openedAt = b.cfg.Now() // stale failure: extend the window
	}
}

func (b *Breaker) tripLocked() {
	b.state = StateOpen
	b.openedAt = b.cfg.Now()
	b.trips++
}

// State returns the breaker's current state (open flips to half-open only
// when Allow admits the probe, so an untouched expired breaker still reads
// open — the probe is what heals it).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Stats returns a snapshot of the breaker's state and lifetime counters.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStats{
		State:     b.state,
		StateName: b.state.String(),
		Failures:  b.failures,
		Trips:     b.trips,
		Probes:    b.probes,
	}
}
