package fault

import (
	"sync"
	"time"
)

// Limiter is a token-bucket rate limiter, the admission-control primitive
// behind per-tenant QoS: tokens refill continuously at rate per second up
// to burst, and admitting n records costs n tokens.
//
// Admission is all-or-nothing: a denied request costs no tokens, and the
// returned hint tells the caller when it would fit — the number the HTTP
// edge surfaces as a Retry-After header. A request larger than the bucket
// is admitted only from a full bucket and leaves it in debt (burst − n
// tokens), so it waits out its own refill and admitted volume stays within
// rate·t plus the largest request. Safe for concurrent use; one mutex
// acquisition per decision (admission runs per batch or per record on an
// already-synchronous validation path).
type Limiter struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64 // negative while an over-size request's debt is repaid
	last   time.Time
	now    func() time.Time
}

// NewLimiter returns a full bucket admitting rate records/second with depth
// burst. rate must be positive; burst below 1 is raised to max(rate, 1) so
// a conforming single record is always admissible from a full bucket.
func NewLimiter(rate, burst float64) *Limiter {
	if rate <= 0 {
		rate = 1
	}
	if burst < 1 {
		if burst = rate; burst < 1 {
			burst = 1
		}
	}
	l := &Limiter{rate: rate, burst: burst, tokens: burst, now: time.Now}
	l.last = l.now()
	return l
}

// SetClock replaces the limiter's clock (tests only; not safe concurrently
// with use).
func (l *Limiter) SetClock(now func() time.Time) {
	l.now = now
	l.last = now()
}

// refillLocked advances the bucket to the current instant.
func (l *Limiter) refillLocked() {
	t := l.now()
	if dt := t.Sub(l.last).Seconds(); dt > 0 {
		l.tokens += dt * l.rate
		if l.tokens > l.burst {
			l.tokens = l.burst
		}
	}
	l.last = t
}

// Admit admits n records if the bucket holds n tokens — or, for n beyond
// the bucket's depth, if the bucket is full — spending them. Otherwise it
// spends nothing and returns how long until the request would be admitted:
// until n tokens have refilled, or the whole bucket for an over-size n.
func (l *Limiter) Admit(n int) (bool, time.Duration) {
	if n <= 0 {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refillLocked()
	need := min(float64(n), l.burst)
	if need <= l.tokens {
		l.tokens -= float64(n)
		return true, 0
	}
	return false, time.Duration((need - l.tokens) / l.rate * float64(time.Second))
}
