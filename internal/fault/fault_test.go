package fault

import (
	"errors"
	"net"
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for breaker/limiter tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }

func TestBreakerStateMachine(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 3,
		OpenTimeout:      time.Second,
		Now:              clk.now,
	})

	if b.State() != StateClosed {
		t.Fatalf("new breaker state = %v, want closed", b.State())
	}
	// Failures below the threshold keep it closed; a success resets the streak.
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatal("closed breaker refused a call")
		}
		b.OnFailure()
	}
	b.OnSuccess()
	for i := 0; i < 2; i++ {
		b.OnFailure()
	}
	if b.State() != StateClosed {
		t.Fatalf("state after reset + 2 failures = %v, want closed", b.State())
	}
	// The third consecutive failure trips it.
	b.OnFailure()
	if b.State() != StateOpen {
		t.Fatalf("state after threshold failures = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call before the timeout")
	}

	// After OpenTimeout one half-open probe is admitted — and only one.
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe")
	}
	if b.State() != StateHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("breaker admitted a second concurrent probe")
	}

	// A failed probe reopens immediately.
	b.OnFailure()
	if b.State() != StateOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}

	// Recover: one successful probe closes it.
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused probe after second timeout")
	}
	b.OnSuccess()
	if b.State() != StateClosed {
		t.Fatalf("state after a successful probe = %v, want closed", b.State())
	}

	st := b.Stats()
	if st.Trips != 2 || st.Probes != 2 || st.StateName != "closed" {
		t.Fatalf("stats = %+v, want 2 trips, 2 probes, closed", st)
	}
}

func TestBackoffDelays(t *testing.T) {
	// Deterministic midpoint jitter (rand = 0.5 → factor 1.0).
	b := Backoff{Min: 10 * time.Millisecond, Max: 80 * time.Millisecond,
		Rand: func() float64 { return 0.5 }}
	want := []time.Duration{10, 20, 40, 80, 80} // ms, capped at Max
	for i, w := range want {
		if got := b.Delay(i); got != w*time.Millisecond {
			t.Fatalf("Delay(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	// Jitter bounds: every delay within ±20% of nominal.
	j := Backoff{Min: 100 * time.Millisecond, Max: time.Second}
	for i := 0; i < 100; i++ {
		d := j.Delay(0)
		if d < 80*time.Millisecond || d > 120*time.Millisecond {
			t.Fatalf("jittered Delay(0) = %v, want within ±20%% of 100ms", d)
		}
	}
}

func TestLimiter(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(10, 5) // 10 records/s, bucket of 5
	l.SetClock(clk.now)

	if ok, _ := l.Admit(5); !ok {
		t.Fatal("full bucket refused its burst")
	}
	ok, retry := l.Admit(1)
	if ok {
		t.Fatal("empty bucket admitted a record")
	}
	if retry != 100*time.Millisecond {
		t.Fatalf("retry after = %v, want 100ms (1 token @ 10/s)", retry)
	}
	// Refill is time-driven.
	clk.advance(200 * time.Millisecond)
	if ok, _ := l.Admit(2); !ok {
		t.Fatal("refilled tokens refused")
	}

	// A request larger than the bucket is refused until the bucket is
	// full, then admitted whole, leaving a debt that holds off everything
	// else until it is repaid.
	clk.advance(10 * time.Second)
	if ok, _ := l.Admit(1); !ok {
		t.Fatal("full bucket refused a record")
	}
	// 4 of 5 tokens: the over-size request waits for the bucket to fill.
	if ok, retry := l.Admit(8); ok || retry != 100*time.Millisecond {
		t.Fatalf("over-size request on a 4/5 bucket = %v, %v; want refused, 100ms", ok, retry)
	}
	clk.advance(100 * time.Millisecond)
	if ok, _ := l.Admit(8); !ok {
		t.Fatal("full bucket refused an over-size request")
	}
	// The bucket is 3 tokens in debt: 0.8 s until it is full again, 0.4 s
	// until one record fits.
	if ok, retry := l.Admit(8); ok || retry != 800*time.Millisecond {
		t.Fatalf("over-size request in debt = %v, %v; want refused, 800ms", ok, retry)
	}
	if ok, retry := l.Admit(1); ok || retry != 400*time.Millisecond {
		t.Fatalf("record in debt = %v, %v; want refused, 400ms", ok, retry)
	}
	clk.advance(300 * time.Millisecond)
	if ok, _ := l.Admit(1); ok {
		t.Fatal("record admitted before the debt was repaid")
	}
	clk.advance(100 * time.Millisecond)
	if ok, _ := l.Admit(1); !ok {
		t.Fatal("record refused once the debt was repaid")
	}
	// Admitted volume stays within rate·t plus the largest request: over
	// 10 s of back-to-back over-size requests, 100 tokens refill.
	admitted := 0
	for i := 0; i < 100; i++ {
		clk.advance(100 * time.Millisecond)
		if ok, _ := l.Admit(8); ok {
			admitted += 8
		}
	}
	if admitted > 100+8 {
		t.Fatalf("admitted %d records in 10 s at 10/s, want at most 108", admitted)
	}
}

func TestInjectorPartition(t *testing.T) {
	inj := &Injector{}
	srv, cli := net.Pipe()
	defer srv.Close()
	wrapped := inj.Wrap(cli)

	// Transparent while healthy.
	go srv.Write([]byte("ok"))
	buf := make([]byte, 2)
	if _, err := wrapped.Read(buf); err != nil {
		t.Fatalf("healthy read = %v", err)
	}

	inj.Partition()
	if _, err := wrapped.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("partitioned write = %v, want ErrInjected", err)
	}
	dial := inj.Dial(func(addr string) (net.Conn, error) {
		t.Fatal("dial reached the network during a partition")
		return nil, nil
	})
	if _, err := dial("anywhere"); !errors.Is(err, ErrInjected) {
		t.Fatalf("partitioned dial = %v, want ErrInjected", err)
	}

	inj.Heal()
	if inj.Injected() != 2 {
		t.Fatalf("injected = %d, want 2", inj.Injected())
	}
	// FailNext induces a bounded burst.
	inj.FailNext(1)
	c2a, c2b := net.Pipe()
	defer c2b.Close()
	w2 := inj.Wrap(c2a)
	if _, err := w2.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("FailNext write = %v, want ErrInjected", err)
	}
}
