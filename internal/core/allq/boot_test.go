package allq

import (
	"bytes"
	"io"
	"reflect"
	"sync"
	"testing"

	"disttrack/internal/oracle"
	"disttrack/internal/stream"
)

// TestBootstrapReadsChangeNoState queries a tracker between all of its
// bootstrap arrivals, where every answer must be exact, and from a second
// goroutine under Quiesce throughout, and checks it against an unqueried
// twin: the checkpoint at the handoff and every meter afterwards must be
// identical. Run with -race: the first read
// after an arrival sorts the bootstrap list, so a read outside the quiescent
// lock set would race the arrivals.
func TestBootstrapReadsChangeNoState(t *testing.T) {
	cfg := Config{K: 2, Eps: 0.05} // bootstrap target 64k/ε = 2560
	queried, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	quiet, _ := New(cfg)
	read := func() {
		queried.Quiesce(func() {
			if queried.TrueTotal() == 0 {
				return
			}
			queried.Rank(stream.PerturbValue(3))
			queried.Quantile(0.5)
			queried.HeavyHittersFromRanks(0.2, stream.PerturbBits)
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

	gen := stream.Perturb(stream.Zipf(50, 4000, 1.1, 59)) // out of order, with repeated values
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
				for v := uint64(0); v < 8; v++ {
					if got, want := queried.Rank(stream.PerturbValue(v)), o.Rank(stream.PerturbValue(v)); got != want {
						t.Errorf("step %d: bootstrap Rank(value %d) = %d, exact %d", i, v, got, want)
					}
				}
				if got, want := queried.Quantile(0.5), o.Quantile(0.5); got != want {
					t.Errorf("step %d: bootstrap median %d, exact %d", i, got, want)
				}
			})
			continue
		}
		if !handoff {
			handoff = true
			var a, b bytes.Buffer
			if err := queried.Checkpoint(&a); err != nil {
				t.Fatal(err)
			}
			if err := quiet.Checkpoint(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("step %d: the queried tracker's handoff checkpoint differs from its twin's", i)
			}
		}
		if a, b := queried.Meter().State(), quiet.Meter().State(); !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d: meters differ: %+v vs %+v", i, a, b)
		}
	}
	if !handoff {
		t.Fatal("the stream never left bootstrap")
	}
}
