package service

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"disttrack/internal/stream"
)

// cacheAsk is one query to one tenant.
type cacheAsk struct {
	tenant string
	q      query
}

func (a cacheAsk) String() string {
	return a.tenant + "/" + shapeNames[a.q.shape].label
}

// feedTenant ingests n records with values skewed toward 0 into tenant over
// sites 0 and 1 (valid at k = 2 and k = 3), then flushes.
func feedTenant(t *testing.T, s *Server, tenant string, from, n uint64) {
	t.Helper()
	recs := make([]Record, 0, n)
	for v := from; v < from+n; v++ {
		recs = append(recs, Record{Tenant: tenant, Site: int(v % 2), Value: v % 3 * (v % 50)})
	}
	if acc, errs := s.Ingest(recs); acc != len(recs) {
		t.Fatalf("ingest %s: accepted %d of %d: %v", tenant, acc, len(recs), errs)
	}
	s.Flush()
}

// TestQueryCache pins the snapshot cache's rule for every query shape: at
// an unchanged coordinator version a repeated query is a cache hit (no
// quiescent section, the identical answer, no allocation); after an ingest
// ticks the version, the next query misses and answers what a fresh
// quiescent read of the tracker does.
func TestQueryCache(t *testing.T) {
	s := New(Config{SiteBuffer: 16})
	defer s.Close()
	for _, tc := range []TenantConfig{
		{Name: "hh", Kind: KindHH, K: 2, Eps: 0.1},
		{Name: "quant", Kind: KindQuantile, K: 2, Eps: 0.1, Phis: []float64{0.5}},
		{Name: "allq", Kind: KindAllQ, K: 2, Eps: 0.1},
	} {
		mustCreate(t, s, tc)
		// Past every kind's bootstrap target at k = 2, ε = 0.1 (allq's is
		// the largest, 1,280), so the answers come from tracking rounds.
		feedTenant(t, s, tc.Name, 0, 3000)
	}
	for _, c := range []cacheAsk{
		{"hh", query{shape: shapeHeavy, phi: 0.2}},
		{"hh", query{shape: shapeFreq, x: 0}},
		{"quant", query{shape: shapeQuantile, phi: 0.5}},
		{"allq", query{shape: shapeHeavy, phi: 0.2}},
		{"allq", query{shape: shapeQuantile, phi: 0.5}},
		{"allq", query{shape: shapeRank, x: 10}},
	} {
		t.Run(c.String(), func(t *testing.T) {
			tn := s.reg.Get(c.tenant)
			quiesces := tn.tm.eng.QuiesceHold
			first, err := tn.ask(c.q)
			if err != nil {
				t.Fatal(err)
			}
			hits, held := s.met.cacheHits.Value(), quiesces.Count()
			again, err := tn.ask(c.q)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.met.cacheHits.Value(); got != hits+1 {
				t.Errorf("repeat at version %d: cache hits %d, want %d", first.ver, got, hits+1)
			}
			if got := quiesces.Count(); got != held {
				t.Errorf("repeat at version %d: %d quiescent holds, want %d", first.ver, got, held)
			}
			if !reflect.DeepEqual(again, first) {
				t.Errorf("repeat answered %+v, first %+v", again, first)
			}
			if !raceEnabled {
				if n := testing.AllocsPerRun(100, func() { tn.ask(c.q) }); n != 0 {
					t.Errorf("a cache hit allocates %v times", n)
				}
			}

			ver := tn.version()
			for n := uint64(0); tn.version() == ver; n++ {
				if n == 100 {
					t.Fatalf("version stuck at %d after %d ingests", ver, n)
				}
				feedTenant(t, s, c.tenant, 3000+200*n, 200)
			}
			misses, held := s.met.cacheMisses.Value(), quiesces.Count()
			got, err := tn.ask(c.q)
			if err != nil {
				t.Fatal(err)
			}
			if m := s.met.cacheMisses.Value(); m != misses+1 {
				t.Errorf("after the version ticked: cache misses %d, want %d", m, misses+1)
			}
			if h := quiesces.Count(); h != held+1 {
				t.Errorf("after the version ticked: %d quiescent holds, want %d", h, held+1)
			}
			var want answer
			tn.tr.Quiesce(func() {
				want = tn.answers[c.q.shape](c.q)
				want.ver = tn.version()
			})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("after the version ticked: answered %+v, a fresh read %+v", got, want)
			}
		})
	}
}

// kindFacts is each kind's capability written out by hand: the shapes it
// answers, whether its values are perturbed and whether it takes phis.
var kindFacts = map[Kind]struct {
	answers         []shape
	perturbed, phis bool
}{
	KindHH:       {answers: []shape{shapeHeavy, shapeFreq}},
	KindQuantile: {answers: []shape{shapeQuantile}, perturbed: true, phis: true},
	KindAllQ:     {answers: []shape{shapeHeavy, shapeQuantile, shapeRank}, perturbed: true},
}

// TestKindTable ranges over the kind table and checks each kind against
// kindFacts: a kind added to the table without its answers, or whose facts
// drift, fails here. Each fact is checked by its effect: every shape is
// asked, phis are offered to validate, and a value past MaxPerturbedValue
// is ingested.
func TestKindTable(t *testing.T) {
	s := New(Config{SiteBuffer: 16})
	defer s.Close()
	for kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			want, ok := kindFacts[kind]
			if !ok {
				t.Fatalf("kind %q has no row in kindFacts", kind)
			}
			tc := TenantConfig{Name: string(kind), Kind: kind, K: 2, Eps: 0.1}
			mustCreate(t, s, tc)
			feedTenant(t, s, tc.Name, 0, 100)
			tn := s.reg.Get(tc.Name)
			for sh := range nShapes {
				_, err := tn.ask(query{shape: sh, phi: 0.5, x: 1})
				if slices.Contains(want.answers, sh) {
					if err != nil {
						t.Errorf("%s query: %v", shapeNames[sh].noun, err)
					}
				} else if !errors.Is(err, ErrUnsupported) {
					t.Errorf("%s query: err %v, want ErrUnsupported", shapeNames[sh].noun, err)
				}
			}
			tc.Phis = []float64{0.5}
			if err := tc.validate(); (err == nil) != want.phis {
				t.Errorf("validate with phis: %v", err)
			}
			acc, _ := s.Ingest([]Record{{Tenant: tc.Name, Value: MaxPerturbedValue}})
			if (acc == 0) != want.perturbed {
				t.Errorf("a value of 2^%d: accepted %d", 64-stream.PerturbBits, acc)
			}
		})
	}
}

// queryRoutes are the shapes' URL path segments (handlers.go registers them).
var queryRoutes = [nShapes]string{"heavy", "quantile", "rank", "freq"}

// TestQueryCacheUnderFire runs every supported shape of an hh and an allq
// tenant from eight goroutines while two producers ingest and a third
// goroutine switches k between 2 and 3. Half the askers call ask, half go
// through the HTTP handler with the last ETag they got as If-None-Match.
// The race detector checks the one cache every shape shares; the test
// checks that the versions each asker gets back for a tenant never
// decrease.
func TestQueryCacheUnderFire(t *testing.T) {
	s := New(Config{SiteBuffer: 16})
	defer s.Close()
	names := []string{"hh", "allq"}
	for _, tc := range []TenantConfig{
		{Name: "hh", Kind: KindHH, K: 2, Eps: 0.1},
		{Name: "allq", Kind: KindAllQ, K: 2, Eps: 0.1},
	} {
		mustCreate(t, s, tc)
		feedTenant(t, s, tc.Name, 0, 500)
	}
	asks := []cacheAsk{
		{"hh", query{shape: shapeHeavy, phi: 0.2}},
		{"hh", query{shape: shapeFreq, x: 3}},
		{"allq", query{shape: shapeHeavy, phi: 0.2}},
		{"allq", query{shape: shapeQuantile, phi: 0.5}},
		{"allq", query{shape: shapeRank, x: 10}},
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	var switches atomic.Int64
	for p := range 2 {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for v := uint64(p); ; v += 2 {
				select {
				case <-stop:
					return
				default:
				}
				val := v % 3 * (v % 50)
				s.Ingest([]Record{
					{Tenant: "hh", Site: int(v % 2), Value: val},
					{Tenant: "allq", Site: int(v % 2), Value: val},
				})
			}
		}()
	}
	bg.Add(1)
	go func() {
		defer bg.Done()
		for k := 3; ; k = 5 - k {
			select {
			case <-stop:
				return
			default:
			}
			for _, name := range names {
				if err := s.ReconfigureTenant(name, k); err != nil {
					t.Errorf("reconfigure %s to k=%d: %v", name, k, err)
				}
			}
			switches.Add(1)
			time.Sleep(time.Millisecond)
		}
	}()

	h := s.Handler()
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := map[string]uint64{}
			etags := map[string]string{}
			// Every asker overlaps a few membership changes.
			for i := 0; i < 40 || switches.Load() < 4; i++ {
				for _, a := range asks {
					var ver uint64
					if g%2 == 0 {
						ans, err := s.reg.Get(a.tenant).ask(a.q)
						if err != nil {
							t.Errorf("%v: %v", a, err)
							return
						}
						ver = ans.ver
					} else {
						param := strconv.FormatUint(a.q.x, 10)
						if queryParams[a.q.shape] == "phi" {
							param = strconv.FormatFloat(a.q.phi, 'g', -1, 64)
						}
						req := httptest.NewRequest("GET", "/v1/tenants/"+a.tenant+"/"+queryRoutes[a.q.shape]+
							"?"+queryParams[a.q.shape]+"="+param, nil)
						if e := etags[a.tenant]; e != "" {
							req.Header.Set("If-None-Match", e)
						}
						rec := httptest.NewRecorder()
						h.ServeHTTP(rec, req)
						etag := rec.Header().Get("ETag")
						_, v, ok := strings.Cut(strings.Trim(etag, `"`), "-v")
						n, err := strconv.ParseUint(v, 10, 64)
						if (rec.Code != http.StatusOK && rec.Code != http.StatusNotModified) || !ok || err != nil {
							t.Errorf("%v: status %d, ETag %q: %s", a, rec.Code, etag, rec.Body)
							return
						}
						etags[a.tenant], ver = etag, n
					}
					if ver < last[a.tenant] {
						t.Errorf("%v: version %d after %d", a, ver, last[a.tenant])
					}
					last[a.tenant] = ver
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	bg.Wait()
}
