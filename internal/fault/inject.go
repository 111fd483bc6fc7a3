package fault

import (
	"errors"
	"net"
	"sync"
)

// ErrInjected marks failures induced by an Injector, so tests can tell
// injected faults from real ones.
var ErrInjected = errors.New("fault: injected failure")

// Injector induces faults on wrapped connections: a full partition (every
// operation fails until healed) or a bounded burst of failures. It is the
// test counterpart of the redial machinery — internal/remote's dial hook
// lets a test route a node client's connections through one and watch the
// client back off and resync.
//
// Safe for concurrent use; the zero value is a transparent no-op injector.
type Injector struct {
	mu          sync.Mutex
	partitioned bool
	failNext    int
	injected    int64
}

// Partition makes every subsequent operation on wrapped connections (and
// every Dial) fail until Heal. Existing wrapped connections are not closed;
// their next Read/Write errors, which is exactly how a silent network
// partition presents.
func (i *Injector) Partition() {
	i.mu.Lock()
	i.partitioned = true
	i.mu.Unlock()
}

// Heal ends a partition and clears any pending failure burst.
func (i *Injector) Heal() {
	i.mu.Lock()
	i.partitioned = false
	i.failNext = 0
	i.mu.Unlock()
}

// FailNext makes the next n operations fail (each failure also counts one
// injected fault), then behavior returns to normal.
func (i *Injector) FailNext(n int) {
	i.mu.Lock()
	i.failNext = n
	i.mu.Unlock()
}

// Injected returns how many faults the injector has induced.
func (i *Injector) Injected() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.injected
}

// check applies the per-operation policy: it reports whether to inject a
// failure.
func (i *Injector) check() error {
	i.mu.Lock()
	defer i.mu.Unlock()
	fail := i.partitioned
	if !fail && i.failNext > 0 {
		i.failNext--
		fail = true
	}
	if !fail {
		return nil
	}
	i.injected++
	return ErrInjected
}

// Dial wraps a dial function: while partitioned it fails immediately, and
// successful connections are wrapped so later faults apply to them.
func (i *Injector) Dial(dial func(addr string) (net.Conn, error)) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		if err := i.check(); err != nil {
			return nil, err
		}
		conn, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return i.Wrap(conn), nil
	}
}

// Wrap returns c with the injector's fault policy applied to every Read and
// Write. An injected fault closes the underlying connection (a failed
// socket is not half-usable) and returns ErrInjected.
func (i *Injector) Wrap(c net.Conn) net.Conn {
	return &injConn{Conn: c, inj: i}
}

type injConn struct {
	net.Conn
	inj *Injector
}

func (c *injConn) Read(p []byte) (int, error) {
	if err := c.inj.check(); err != nil {
		c.Conn.Close()
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c *injConn) Write(p []byte) (int, error) {
	if err := c.inj.check(); err != nil {
		c.Conn.Close()
		return 0, err
	}
	return c.Conn.Write(p)
}
