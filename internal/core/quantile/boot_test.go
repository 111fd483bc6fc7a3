package quantile

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"disttrack/internal/oracle"
	"disttrack/internal/stream"
)

// TestBootstrapReadsChangeNoState queries a tracker between all of its
// bootstrap arrivals, where every answer must be exact, and from a second
// goroutine under Quiesce throughout, and checks it against an unqueried
// twin: the checkpoint at the handoff and every meter, round count and
// quantile afterwards must be identical. Run
// with -race: the first read after an arrival sorts the bootstrap list, so a
// read outside the quiescent lock set would race the arrivals.
func TestBootstrapReadsChangeNoState(t *testing.T) {
	cfg := Config{K: 2, Eps: 0.05, Phis: []float64{0, 0.3, 0.5, 1}} // bootstrap target 32k/ε = 1280
	queried, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	quiet, _ := New(cfg)
	read := func() {
		queried.Quiesce(func() {
			if queried.TrueTotal() > 0 {
				queried.Quantiles()
			}
		})
		if err := queried.Checkpoint(io.Discard); err != nil {
			t.Error(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				read()
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	gen := stream.Zipf(1000, 3000, 1.1, 53) // out of order, with duplicates
	o := oracle.New()
	handoff := false
	for i := 0; ; i++ {
		x, ok := gen.Next()
		if !ok {
			break
		}
		queried.Feed(i%cfg.K, x)
		quiet.Feed(i%cfg.K, x)
		o.Add(x)
		if queried.Bootstrapping() {
			read()
			queried.Quiesce(func() {
				for qi, phi := range cfg.Phis {
					if got, want := queried.QuantileAt(qi), o.Quantile(phi); got != want {
						t.Errorf("step %d: bootstrap quantile %g = %d, exact %d", i, phi, got, want)
					}
				}
			})
			continue
		}
		if !handoff {
			handoff = true
			if !bytes.Equal(checkpointBytes(t, queried), checkpointBytes(t, quiet)) {
				t.Fatalf("step %d: the queried tracker's handoff checkpoint differs from its twin's", i)
			}
		}
		sameState(t, i, queried, quiet)
	}
	if !handoff {
		t.Fatal("the stream never left bootstrap")
	}
}
