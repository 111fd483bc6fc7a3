package hh

import (
	"math"
	"math/rand"
	"testing"

	"disttrack/internal/stream"
)

// atThresholdEdge reports whether every site's Δ(m) sits one below its
// reporting threshold — the moment a membership change has the most
// unreported arrivals to lose.
func atThresholdEdge(tr *Tracker) bool {
	for _, s := range tr.p.sites {
		if s.dm != tr.p.threshold(s)-1 {
			return false
		}
	}
	return true
}

// fillToEdge feeds each site of tr, one arrival at a time from next, until
// its Δ(m) is one below its reporting threshold. Δ(m) stays below the
// threshold, so no "all" report fires, no broadcast moves a threshold, and
// one pass lines every site up; it fails the test if a site takes more than
// a threshold's arrivals or next runs dry.
func fillToEdge(t *testing.T, tr *Tracker, next func(j int) bool) {
	t.Helper()
	for j, s := range tr.p.sites {
		thr := tr.p.threshold(s)
		for steps := int64(0); s.dm < thr-1; steps++ {
			if steps >= thr {
				t.Fatalf("site %d: Δ(m) %d after %d arrivals, still short of %d", j, s.dm, steps, thr-1)
			}
			if !next(j) {
				t.Fatalf("stream ended with site %d at Δ(m) %d, short of %d", j, s.dm, thr-1)
			}
		}
	}
	if !atThresholdEdge(tr) {
		t.Fatal("a site left the threshold edge while the others were fed")
	}
}

// TestReconfigureKeepsInvariants shrinks the membership 8→3 and then grows
// it 3→6 mid-stream, each time after feeding every site to one below its
// threshold, and checks invariants (2)–(3) after every arrival and right
// after each change. A restart that broadcast C.m without the departing
// sites' Δ(m) would leave C.m short by up to 5·(threshold−1) for good.
func TestReconfigureKeepsInvariants(t *testing.T) {
	tr, err := New(Config{K: 8, Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	truth := map[uint64]int64{}
	g := stream.Zipf(100, 120000, 1.3, 71)
	var n int64
	feed := func(j int) bool {
		x, ok := g.Next()
		if !ok {
			return false
		}
		tr.Feed(j, x)
		truth[x]++
		n++
		checkInvariants(t, tr, truth, n, int(n))
		return true
	}
	for _, c := range []struct {
		after int64 // earliest arrival count
		k     int
	}{{40000, 3}, {80000, 6}} {
		for n < c.after {
			if !feed(int(n) % tr.K()) {
				t.Fatalf("stream ended before the change to k=%d", c.k)
			}
		}
		fillToEdge(t, tr, feed)
		var pending int64
		for _, s := range tr.p.sites {
			pending += s.dm
		}
		if pending == 0 {
			t.Fatal("no unreported arrivals at the change: the test would prove nothing")
		}
		if err := tr.Reconfigure(c.k); err != nil {
			t.Fatal(err)
		}
		if tr.EstTotal() != n {
			t.Fatalf("after Reconfigure(%d): C.m = %d, want the exact count %d", c.k, tr.EstTotal(), n)
		}
		checkInvariants(t, tr, truth, n, int(n))
	}
	for feed(int(n) % tr.K()) {
	}
}

// TestGrowthReportsStaleItemDeltas grows 3→6 sites when every site holds
// one item's Δ(m_x) one below the threshold, then sends that item only to
// the new sites, as the Lemma 2.3 adversary would. Growth halves the
// threshold, so unless the surviving sites report those deltas at the
// restart, C.m_x falls behind m_x by more than εm/3 within a few arrivals.
func TestGrowthReportsStaleItemDeltas(t *testing.T) {
	const x = 7
	tr, err := New(Config{K: 3, Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	truth := map[uint64]int64{}
	var n int64
	feed := func(j int) bool {
		tr.Feed(j, x)
		truth[x]++
		n++
		return true
	}
	for n < 3000 {
		feed(int(n) % 3)
	}
	fillToEdge(t, tr, feed)
	for j, s := range tr.p.sites {
		// x is the only item, so its Δ(m_x) moves with Δ(m).
		if sl := s.tab.Find(x); sl == nil || sl.Val.dx != tr.p.threshold(s)-1 {
			t.Fatalf("site %d: Δ(m_x) is not one below the threshold %d", j, tr.p.threshold(s))
		}
	}
	if err := tr.Reconfigure(6); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		feed(3 + i%3)
		checkInvariants(t, tr, truth, n, i)
	}
}

// TestRoundsIndependentOfSchedule pins the law that makes hh's delivered
// communication independent of how far sites lag their producers. The same
// per-site sequences are fed under four schedules — round-robin single
// arrivals, 64-item lockstep batches, 4,096-item one-site bursts, and a
// seeded random schedule. Every "all" report carries exactly its threshold
// ⌊ε·M_r/3k⌋, and the coordinator broadcasts at the first report that
// brings C.m to c·M_r, c = 1 + √(2ε/3), so each round starts at M_{r+1},
// the first M_r + i·⌊ε·M_r/3k⌋ at or above c·M_r, from the bootstrap
// target M_0 = ⌈3k/ε⌉: the broadcast values are one sequence for every
// schedule, round counts differ by at most one, and "all" + "newm" words
// by at most 2k (fewer than k "all" reports plus one broadcast).
func TestRoundsIndependentOfSchedule(t *testing.T) {
	const (
		k       = 8
		eps     = 0.05
		perSite = 1 << 14
	)
	streams := make([][]uint64, k)
	g := stream.Zipf(1<<16, k*perSite, 1.3, 73)
	for i := 0; ; i++ {
		x, ok := g.Next()
		if !ok {
			break
		}
		streams[i%k] = append(streams[i%k], x)
	}
	e := float64(eps) // computed at run time, as the tracker does
	c := 1 + math.Sqrt(2*e/3)
	seq := []int64{int64(math.Ceil(3 * k / eps))}
	for len(seq) < 200 {
		m := seq[len(seq)-1]
		thr := max(1, int64(e*float64(m)/(3*k)))
		next := m + thr
		for float64(next) < c*float64(m) {
			next += thr
		}
		seq = append(seq, next)
	}

	type chunk struct{ site, size int }
	lockstep := func(size int) []chunk {
		var out []chunk
		for b := 0; b < perSite/size; b++ {
			for j := 0; j < k; j++ {
				out = append(out, chunk{j, size})
			}
		}
		return out
	}
	random := func() []chunk {
		rng := rand.New(rand.NewSource(79))
		left := make([]int, k)
		for j := range left {
			left[j] = perSite
		}
		var out []chunk
		for rest := k * perSite; rest > 0; {
			j := rng.Intn(k)
			if left[j] == 0 {
				continue
			}
			size := min(left[j], 1+rng.Intn(4096))
			left[j] -= size
			rest -= size
			out = append(out, chunk{j, size})
		}
		return out
	}
	schedules := []struct {
		name   string
		chunks []chunk
	}{
		{"round-robin", lockstep(1)},
		{"lockstep-64", lockstep(64)},
		{"burst-4096", lockstep(4096)},
		{"random", random()},
	}

	type result struct {
		rounds int
		words  int64 // "all" + "newm"
	}
	var results []result
	for _, sc := range schedules {
		tr, err := New(Config{K: k, Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		pos := make([]int, k)
		seen := map[int]bool{}
		for _, c := range sc.chunks {
			tr.FeedLocalBatch(c.site, streams[c.site][pos[c.site]:pos[c.site]+c.size])
			pos[c.site] += c.size
			if tr.Bootstrapping() {
				continue
			}
			r := tr.Rounds()
			for _, s := range tr.p.sites {
				if s.m != seq[r] {
					t.Fatalf("%s: round %d started at m = %d, want %d", sc.name, r, s.m, seq[r])
				}
			}
			seen[r] = true
		}
		var pending int64
		for _, s := range tr.p.sites {
			pending += s.dm
		}
		if n := tr.TrueTotal(); n != k*perSite || tr.EstTotal()+pending != n {
			t.Fatalf("%s: C.m %d + pending Δ(m) %d != m %d", sc.name, tr.EstTotal(), pending, n)
		}
		if sc.name == "round-robin" && len(seen) != tr.Rounds()+1 {
			t.Fatalf("round-robin checked %d of %d round starts", len(seen), tr.Rounds()+1)
		}
		m := tr.Meter()
		results = append(results, result{tr.Rounds(), m.Kind("all").Words + m.Kind("newm").Words})
		t.Logf("%-12s rounds %d, all+newm words %d, total words %d", sc.name, tr.Rounds(), results[len(results)-1].words, m.Total().Words)
	}
	for i, r := range results[1:] {
		base := results[0]
		if d := r.rounds - base.rounds; d < -1 || d > 1 {
			t.Errorf("%s: %d rounds against round-robin's %d", schedules[i+1].name, r.rounds, base.rounds)
		}
		if d := r.words - base.words; d < -2*k || d > 2*k {
			t.Errorf("%s: %d all+newm words against round-robin's %d", schedules[i+1].name, r.words, base.words)
		}
	}
}
