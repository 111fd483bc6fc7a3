package service

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"disttrack/internal/fault"
)

func TestIngestValidation(t *testing.T) {
	s := New(Config{SiteBuffer: 8})
	defer s.Close()
	if _, err := s.Registry().Create(TenantConfig{Name: "t", Kind: KindQuantile, K: 2, Eps: 0.1}); err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Tenant: "t", Site: 0, Value: 1},
		{Tenant: "ghost", Site: 0, Value: 1},
		{Tenant: "t", Site: 7, Value: 1},
		{Tenant: "t", Site: 1, Value: MaxPerturbedValue}, // too big for a perturbed kind
		{Tenant: "t", Site: 1, Value: 2},
	}
	acc, errs := s.Ingest(recs)
	if acc != 2 {
		t.Fatalf("accepted %d, want 2", acc)
	}
	if len(errs) != 3 {
		t.Fatalf("rejected %d, want 3: %+v", len(errs), errs)
	}
	want := map[int]bool{1: true, 2: true, 3: true}
	for _, e := range errs {
		if !want[e.Index] {
			t.Errorf("unexpected rejection index %d (%s)", e.Index, e.Err)
		}
	}
	s.Flush()
	st := s.Registry().Get("t").Stats()
	if st.Processed != 2 {
		t.Fatalf("processed %d, want 2", st.Processed)
	}
}

func TestMixedBatchIngestPreservesPerTenantTotals(t *testing.T) {
	const tenants, perTenant = 6, 3000
	s := New(Config{SiteBuffer: 32})
	defer s.Close()
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for i, n := range names {
		kind := []Kind{KindHH, KindQuantile, KindAllQ}[i%3]
		if _, err := s.Registry().Create(TenantConfig{Name: n, Kind: kind, K: 4, Eps: 0.1}); err != nil {
			t.Fatal(err)
		}
	}
	// Concurrent producers interleaving all tenants in each batch.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perTenant/4; i++ {
				recs := make([]Record, 0, tenants)
				for ti, n := range names {
					recs = append(recs, Record{Tenant: n, Site: (i + ti) % 4, Value: uint64(w*1_000_000 + i)})
				}
				if acc, errs := s.Ingest(recs); acc != tenants || len(errs) != 0 {
					t.Errorf("ingest accepted %d (%v)", acc, errs)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s.Flush()
	for _, n := range names {
		st := s.Registry().Get(n).Stats()
		if st.Processed != perTenant/4*4 {
			t.Errorf("tenant %s processed %d, want %d", n, st.Processed, perTenant/4*4)
		}
		var sum int64
		for _, c := range st.SiteCounts {
			sum += c
		}
		if sum != st.Processed {
			t.Errorf("tenant %s site counts sum %d != processed %d", n, sum, st.Processed)
		}
		if st.Batches == 0 {
			t.Errorf("tenant %s saw no batched deliveries", n)
		}
		if st.Dropped != 0 || st.Ties != 0 {
			t.Errorf("tenant %s dropped=%d ties=%d, want 0", n, st.Dropped, st.Ties)
		}
	}
}

func TestPerturbationKeepsDuplicatesDistinct(t *testing.T) {
	s := New(Config{SiteBuffer: 8})
	defer s.Close()
	if _, err := s.Registry().Create(TenantConfig{Name: "q", Kind: KindQuantile, K: 1, Eps: 0.1}); err != nil {
		t.Fatal(err)
	}
	// 5000 copies of the same value: without perturbation the quantile
	// protocol's separators would collapse; with it the median must be the
	// value itself and the tracker absorbs all arrivals.
	recs := make([]Record, 5000)
	for i := range recs {
		recs[i] = Record{Tenant: "q", Site: 0, Value: 42}
	}
	if acc, errs := s.Ingest(recs); acc != len(recs) || len(errs) != 0 {
		t.Fatalf("ingest: %d accepted, %v", acc, errs)
	}
	s.Flush()
	ten := s.Registry().Get("q")
	v, err := ten.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Fatalf("median of 5000 copies of 42 = %d", v)
	}
}

func TestFlushBarrierMakesIngestVisible(t *testing.T) {
	s := New(Config{SiteBuffer: 4})
	defer s.Close()
	if _, err := s.Registry().Create(TenantConfig{Name: "h", Kind: KindHH, K: 2, Eps: 0.1}); err != nil {
		t.Fatal(err)
	}
	for round := int64(1); round <= 20; round++ {
		recs := make([]Record, 50)
		for i := range recs {
			recs[i] = Record{Tenant: "h", Site: i % 2, Value: uint64(i % 5)}
		}
		s.Ingest(recs)
		s.Flush()
		if st := s.Registry().Get("h").Stats(); st.Processed != round*50 {
			t.Fatalf("round %d: processed %d, want %d", round, st.Processed, round*50)
		}
	}
}

// refTenant is one tenant of the differential test's per-record reference.
type refTenant struct {
	cfg    TenantConfig
	lim    *fault.Limiter // same frozen clock as the server's, so verdicts and hints match exactly
	queued int            // records this call admitted (the service is flushed between calls)
	sites  []int64
}

// refIngest is ingester.Ingest as a per-record specification: validate, admit,
// count, in submission order, with no grouping and no runs.
func refIngest(model map[string]*refTenant, recs []Record) (int, []RecordError) {
	var errs []RecordError
	for _, t := range model {
		t.queued = 0
	}
	for i, rec := range recs {
		t := model[rec.Tenant]
		switch {
		case t == nil:
			errs = append(errs, RecordError{Index: i, Err: fmt.Sprintf("tenant %q not found", rec.Tenant)})
		case rec.Site < 0 || rec.Site >= t.cfg.K:
			errs = append(errs, RecordError{Index: i, Err: fmt.Sprintf("site %d out of range [0,%d)", rec.Site, t.cfg.K)})
		case t.cfg.Kind != KindHH && rec.Value >= MaxPerturbedValue:
			errs = append(errs, RecordError{Index: i, Err: fmt.Sprintf("value %d out of range [0, %d) for kind %q",
				rec.Value, MaxPerturbedValue, t.cfg.Kind)})
		default:
			retry, denied := time.Duration(0), false
			if t.cfg.QueueShare > 0 && t.queued >= t.cfg.QueueShare {
				retry, denied = queueShareRetry, true
			} else if t.lim != nil {
				ok, r := t.lim.Admit(1)
				retry, denied = r, !ok
			}
			if denied {
				errs = append(errs, RecordError{Index: i, Code: codeThrottled,
					Err: fmt.Sprintf("tenant %q over its ingest limit, retry in %v", rec.Tenant, retry)})
				continue
			}
			t.queued++
			t.sites[rec.Site]++
		}
	}
	return len(recs) - len(errs), errs
}

// TestGroupedIngestMatchesPerRecordReference feeds seeded random batches —
// runs of random length over up to 64 tenants of all three kinds, with
// unknown tenants, bad sites, over-range values, a rate-limited and a
// queue-share tenant mixed in — and checks the grouped ingest path against
// refIngest: same verdict for every record, and after Flush the same
// per-site counts with nothing dropped, tied or left queued.
func TestGroupedIngestMatchesPerRecordReference(t *testing.T) {
	for _, tc := range []struct {
		seed    int64
		tenants int
	}{{1, 1}, {2, 7}, {3, 64}, {4, 64}} {
		t.Run(fmt.Sprintf("seed%d_tenants%d", tc.seed, tc.tenants), func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			srv := New(Config{SiteBuffer: 8})
			defer srv.Close()
			frozen := time.Unix(1_700_000_000, 0)
			clock := func() time.Time { return frozen }
			model := map[string]*refTenant{}
			var names []string
			for i := 0; i < tc.tenants; i++ {
				cfg := TenantConfig{Name: fmt.Sprintf("t%02d", i), Kind: []Kind{KindHH, KindQuantile, KindAllQ}[i%3],
					K: 1 + rng.Intn(9), Eps: 0.1}
				switch i {
				case 0:
					cfg.RateLimit, cfg.RateBurst = 0.5, 300 // admits 300 records in all, then throttles
				case 1:
					cfg.QueueShare = 5 // at most 5 records per (flushed) call
				}
				mustCreate(t, srv, cfg)
				ref := &refTenant{cfg: cfg, sites: make([]int64, cfg.K)}
				if cfg.RateLimit > 0 {
					srv.Registry().Get(cfg.Name).limiter.SetClock(clock)
					ref.lim = fault.NewLimiter(cfg.RateLimit, cfg.RateBurst)
					ref.lim.SetClock(clock)
				}
				model[cfg.Name] = ref
				names = append(names, cfg.Name)
			}
			var accepted int64
			for b := 0; b < 60; b++ {
				var recs []Record
				for n := rng.Intn(600); len(recs) < n; {
					name := names[rng.Intn(len(names))]
					if rng.Intn(20) == 0 {
						name = "ghost"
					}
					k := 3
					if ref := model[name]; ref != nil {
						k = ref.cfg.K
					}
					for run := 1 + rng.Intn(1+rng.Intn(40)); run > 0; run-- {
						rec := Record{Tenant: name, Site: rng.Intn(k), Value: uint64(rng.Intn(50))}
						switch rng.Intn(30) {
						case 0:
							rec.Site = -1 - rng.Intn(3)
						case 1:
							rec.Site = k + rng.Intn(3)
						case 2:
							rec.Value = MaxPerturbedValue + uint64(rng.Intn(3)) // fine for hh tenants
						}
						recs = append(recs, rec)
					}
				}
				wantAcc, wantErrs := refIngest(model, recs)
				gotAcc, gotErrs, _ := srv.ing.Ingest(recs)
				if gotAcc != wantAcc || !slices.Equal(gotErrs, wantErrs) {
					t.Fatalf("batch %d (%d records): accepted %d, want %d\n got  %+v\n want %+v",
						b, len(recs), gotAcc, wantAcc, gotErrs, wantErrs)
				}
				accepted += int64(gotAcc)
				srv.Flush()
			}
			if got := srv.ing.Accepted(); got != accepted {
				t.Errorf("ingester accepted %d, want %d", got, accepted)
			}
			for name, ref := range model {
				tn := srv.Registry().Get(name)
				st := tn.Stats()
				var want int64
				for _, c := range ref.sites {
					want += c
				}
				if !slices.Equal(st.SiteCounts, ref.sites) || st.Processed != want {
					t.Errorf("tenant %s: site counts %v processed %d, want %v / %d", name, st.SiteCounts, st.Processed, ref.sites, want)
				}
				if st.Dropped != 0 || st.Ties != 0 || tn.queued.Load() != 0 {
					t.Errorf("tenant %s: dropped %d ties %d queued %d, want 0", name, st.Dropped, st.Ties, tn.queued.Load())
				}
			}
		})
	}
}

// TestIngestAllocations pins the steady-state allocation count of one
// Server.Ingest call: nothing for a batch whose groups are large enough for
// pooled slices, and for a batch spread thin over many tenants exactly one —
// the shared backing array of its small groups — never one per tenant or per
// group. (AllocsPerRun counts the whole process, so the site goroutines behind
// Ingest are held to the same budget while they absorb the batches.)
func TestIngestAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	// Short site channels bound what can be in flight, so the warm-up reaches
	// the pools' high-water mark; no collection, so the pools keep it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	srv := New(Config{SiteBuffer: 1})
	defer srv.Close()
	single := make([]Record, 512)
	for i := range single {
		single[i] = Record{Tenant: "t00", Site: i % 8, Value: uint64(i % 50)}
	}
	mixed := make([]Record, 512)
	for i := range mixed {
		mixed[i] = Record{Tenant: fmt.Sprintf("t%02d", i%64), Site: (i / 64) % 8, Value: uint64(i % 50)}
	}
	for i := 0; i < 64; i++ {
		mustCreate(t, srv, TenantConfig{Name: fmt.Sprintf("t%02d", i), Kind: KindHH, K: 8, Eps: 0.1})
	}
	for _, tc := range []struct {
		name string
		recs []Record
		want float64
	}{{"single tenant", single, 0}, {"64 tenants", mixed, 1}} {
		ingest := func() {
			if acc, errs := srv.Ingest(tc.recs); acc != len(tc.recs) || len(errs) != 0 {
				t.Fatalf("%s: accepted %d, errs %v", tc.name, acc, errs)
			}
		}
		// Warm up the way the measurement runs (AllocsPerRun pins GOMAXPROCS
		// to 1).
		testing.AllocsPerRun(500, ingest)
		if got := testing.AllocsPerRun(200, ingest); got != tc.want {
			t.Errorf("%s: %v allocations per 512-record Ingest, want %v", tc.name, got, tc.want)
		}
		srv.Flush()
	}
}

// TestNewStartsNoIngestGoroutines pins the actor picture: the server runs no
// goroutines of its own whatever its settings, and a tenant is exactly its k
// site goroutines.
func TestNewStartsNoIngestGoroutines(t *testing.T) {
	// started reports how many goroutines f leaves running. Goroutines of
	// earlier tests may still be winding down, so a mismatch is retried.
	started := func(want int, f func()) int {
		var got int
		for attempt := 0; attempt < 50; attempt++ {
			base := runtime.NumGoroutine()
			f()
			if got = runtime.NumGoroutine() - base; got == want {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		return got
	}
	for _, cfg := range []Config{{}, {SiteBuffer: 1}, {SiteBuffer: 4096}} {
		var s *Server
		if got := started(0, func() { s = New(cfg) }); got != 0 {
			t.Errorf("New(%+v) started %d goroutines, want 0", cfg, got)
		}
		name := 0
		create := func() {
			name++
			mustCreate(t, s, TenantConfig{Name: fmt.Sprint("t", name), Kind: KindHH, K: 5, Eps: 0.1})
		}
		if got := started(5, create); got != 5 {
			t.Errorf("creating a k=5 tenant started %d goroutines, want 5", got)
		}
		s.Close()
	}
}

// TestConcurrentProducersOneTenant has 8 goroutines ingest the same quantile
// tenant at once. The tenant's gate is what keeps its perturbation counters
// single-writer now, so the total must be exact and every perturbed key
// distinct: each value's counter equals the number of times it was ingested
// (a lost update would reuse a key), nothing tied, and the site stores hold
// exactly the accepted records. Run with -race.
func TestConcurrentProducersOneTenant(t *testing.T) {
	const producers, calls, batch, values = 8, 40, 64, 16
	s := New(Config{SiteBuffer: 4})
	defer s.Close()
	mustCreate(t, s, TenantConfig{Name: "q", Kind: KindQuantile, K: 4, Eps: 0.1})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			recs := make([]Record, batch)
			for c := 0; c < calls; c++ {
				for i := range recs {
					recs[i] = Record{Tenant: "q", Site: (p + i) % 4, Value: uint64((c + i) % values)}
				}
				if acc, errs := s.Ingest(recs); acc != batch || len(errs) != 0 {
					t.Errorf("producer %d: accepted %d, errs %v", p, acc, errs)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	s.Flush()
	const accepted = producers * calls * batch
	tn := s.Registry().Get("q")
	st := tn.Stats()
	if st.Processed != accepted || st.Ties != 0 || st.Dropped != 0 {
		t.Fatalf("processed %d ties %d dropped %d, want %d/0/0", st.Processed, st.Ties, st.Dropped, accepted)
	}
	stored := 0
	tn.tr.Quiesce(func() {
		for j := 0; j < 4; j++ {
			stored += tn.tr.SiteSpace(j)
		}
	})
	if stored != accepted {
		t.Errorf("site stores hold %d keys, want %d", stored, accepted)
	}
	tn.durMu.Lock()
	defer tn.durMu.Unlock()
	if tn.seq.Len() != values {
		t.Fatalf("%d distinct values perturbed, want %d", tn.seq.Len(), values)
	}
	for sl := range tn.seq.All {
		if sl.Val != accepted/values {
			t.Errorf("value %d: perturbation counter %d, want %d", sl.Key, sl.Val, accepted/values)
		}
	}
}

// TestDeleteRecreateUnderFire has producers ingest one perturbed tenant name
// while it is deleted and recreated: the get-lock-recheck loop in
// deliverGroups must land every accepted record on a live instance or count
// it lost — never apply it to an instance after its delete drained it. Run
// with -race.
func TestDeleteRecreateUnderFire(t *testing.T) {
	s := New(Config{SiteBuffer: 4})
	defer s.Close()
	create := func() *Tenant {
		tn, err := s.Registry().Create(TenantConfig{Name: "dr", Kind: KindQuantile, K: 2, Eps: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		return tn
	}
	instances := []*Tenant{create()}

	var wg sync.WaitGroup
	var accepted atomic.Int64
	stop := make(chan struct{})
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Batches large enough that a delete can fall between the call's
			// registry lookup and its delivery.
			recs := make([]Record, 256)
			for c := 0; ; c++ {
				select {
				case <-stop:
					return
				default:
				}
				for i := range recs {
					recs[i] = Record{Tenant: "dr", Site: i % 2, Value: uint64((p + c + i) % 32)}
				}
				acc, _ := s.Ingest(recs) // "not found" rejections while the name is absent
				accepted.Add(int64(acc))
			}
		}(p)
	}
	// closedAt is each deleted instance's processed count when Delete returned.
	var closedAt []int64
	for cycle := 0; cycle < 5; cycle++ {
		time.Sleep(2 * time.Millisecond)
		if !s.Registry().Delete("dr", true) {
			t.Fatal("delete: tenant missing")
		}
		closedAt = append(closedAt, instances[cycle].processed())
		instances = append(instances, create())
	}
	time.Sleep(2 * time.Millisecond)
	close(stop)
	wg.Wait()
	s.Flush()

	var processed int64
	for i, tn := range instances {
		n := tn.processed()
		processed += n
		if i < len(closedAt) && n != closedAt[i] {
			t.Errorf("instance %d: processed moved %d -> %d after its delete returned", i, closedAt[i], n)
		}
		if got := tn.sent.Load(); got != n {
			t.Errorf("instance %d: sent %d, processed %d", i, got, n)
		}
		if ties := tn.ties.Load(); ties != 0 {
			t.Errorf("instance %d: %d ties", i, ties)
		}
	}
	if accepted.Load() == 0 {
		t.Fatal("nothing was accepted")
	}
	if got := s.ing.Accepted(); got != accepted.Load() {
		t.Errorf("ingester accepted %d, producers saw %d", got, accepted.Load())
	}
	if lost := s.ing.Lost(); accepted.Load() != processed+lost {
		t.Errorf("accepted %d != processed %d + lost %d", accepted.Load(), processed, lost)
	}
}
