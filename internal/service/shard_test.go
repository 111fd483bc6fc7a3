package service

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"disttrack/internal/fault"
)

func TestIngestValidation(t *testing.T) {
	s := New(Config{Shards: 2, ShardQueue: 8, SiteBuffer: 8})
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

func TestShardedIngestPreservesPerTenantTotals(t *testing.T) {
	const tenants, perTenant = 6, 3000
	s := New(Config{Shards: 3, ShardQueue: 16, SiteBuffer: 32})
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
	s := New(Config{Shards: 1, ShardQueue: 4, SiteBuffer: 8})
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
	s := New(Config{Shards: 2, ShardQueue: 4, SiteBuffer: 4})
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
	queued int            // records this call admitted (the pipeline is flushed between calls)
	sites  []int64
}

// refIngest is sharder.Ingest as a per-record specification: validate, admit,
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
			srv := New(Config{Shards: 3, ShardQueue: 4, SiteBuffer: 8})
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
				gotAcc, gotErrs, _ := srv.sh.Ingest(recs)
				if gotAcc != wantAcc || !slices.Equal(gotErrs, wantErrs) {
					t.Fatalf("batch %d (%d records): accepted %d, want %d\n got  %+v\n want %+v",
						b, len(recs), gotAcc, wantAcc, gotErrs, wantErrs)
				}
				accepted += int64(gotAcc)
				srv.Flush()
			}
			if got := srv.sh.Accepted(); got != accepted {
				t.Errorf("sharder accepted %d, want %d", got, accepted)
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
// group. (AllocsPerRun counts the whole process, so the pipeline behind
// Ingest is held to the same budget while it absorbs the batches.)
func TestIngestAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	// A short pipeline bounds what can be in flight, so the warm-up reaches
	// the pools' high-water mark; no collection, so the pools keep it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	srv := New(Config{Shards: 2, ShardQueue: 1, SiteBuffer: 1})
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

// TestHashShardMatchesFNV pins the default placement to FNV-1a reduced in
// uint32. Converting the hash to int first goes negative where int is 32
// bits, for every name whose hash has the top bit set — an index panic.
func TestHashShardMatchesFNV(t *testing.T) {
	sh := newSharder(NewRegistry(0), 7, 1, nil)
	defer sh.Close()
	topBit := 0
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		h := fnv.New32a()
		h.Write([]byte(name))
		sum := h.Sum32()
		if sum>>31 == 1 {
			topBit++
		}
		if got, want := sh.hashShard(name), int(sum%7); got != want {
			t.Errorf("hashShard(%q) = %d, want %d (fnv32a %#x)", name, got, want, sum)
		}
	}
	if topBit == 0 {
		t.Fatal("no test name hashes with the top bit set")
	}
}
