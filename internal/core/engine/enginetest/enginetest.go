// Package enginetest is the reusable conformance suite for trackers built
// on the core/engine two-phase skeleton. It pins the engine contract that
// the per-protocol test suites used to re-implement three times over:
//
//   - single-item batches: Feed ≡ FeedLocalBatch of one-item slices from
//     the first bootstrap arrival on, meter and version included, the batch
//     bumping Version exactly when Feed did;
//   - batch equivalence: FeedLocalBatch over a random (site, chunk)
//     schedule matches sequential Feed bit-for-bit — every meter count,
//     per kind and per site, and the engine state — after every chunk,
//     except the bootstrap "item" forwards, which each side must meter at
//     its own exact cost (ItemLedger);
//   - the same equivalence over burst-heavy schedules
//     (CoalescedMatchesSequential): chunks under and over the slow path's
//     bootstrap item budget, so bootstrap batches drain under one hold, end
//     at the handoff, and re-enter the slow path mid-batch;
//   - concurrent stress: one FeedLocalBatch goroutine per site — one-item
//     batches for the maximal interleaving, then random chunks, then
//     burst-sized chunks (CoalescedStress) — racing quiescent queries (run
//     the package's tests under -race: a report that touches another site
//     without Engine.All races with that site's fast path), with exact
//     conservation of TrueTotal and per-site counts afterwards, and the
//     engine's accounting identities (acquisitions + saved acquisitions ==
//     escalations == Version, fast-path feeds == TrueTotal);
//   - meter conservation: up+down, per-site and per-kind accounting all
//     sum to the same totals;
//   - checkpoint/restore round trip: a tracker restored from a checkpoint
//     matches the live one — engine state, meters, queries — and continues
//     the protocol identically from the cut;
//   - reconfigure equivalence: growing and shrinking the membership
//     mid-stream (Reconfigure) is deterministic — a batched feeding with
//     reconfigure points at fixed stream positions matches a sequential
//     replay of the same schedule bit-for-bit, state and meters included,
//     and no arrival is lost across a membership change.
//
// Protocol-specific state equality plugs in through CheckEquiv, and the
// protocol's accuracy contract through CheckFinal, a Law checked after each
// concurrent stress run; the suite runs against all three core trackers and
// a minimal mock policy (see the engine package's tests).
//
// RunLaws checks a kind's laws (delta, ε, build or merge, message replay)
// against the exact arrivals in one pass per schedule, each a subtest whose
// t every law checks through: after every Feed and FeedLocalBatch call, at
// each law's own cadence (Sparse), with every tracker's messages fanned out
// to each law's Tap. Each kind's law tests call it with one law each.
package enginetest

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"disttrack/internal/core"
	"disttrack/internal/core/engine"
	"disttrack/internal/obs"
	"disttrack/internal/stream"
	"disttrack/internal/wire"
)

// Stream selects the items the suite generates.
type Stream int

const (
	// Zipf is a Zipf(1.2) stream over 2²⁰ values, repeats included (the
	// default).
	Zipf Stream = iota
	// DistinctUniform is a perturbed uniform stream: globally distinct keys,
	// as the quantile protocols assume.
	DistinctUniform
	// AscendingTiesZipf is a Zipf(1.2) stream perturbed in ascending tie
	// order (stream.TiesAscending): distinct keys, and each hot value's
	// copies arrive as a sorted run that deepens an allq tracker's tree.
	AscendingTiesZipf
)

// Config describes one tracker configuration under conformance test.
type Config struct {
	// New returns a fresh tracker; every call must produce an identically
	// configured instance (the equivalence tests feed two in lockstep).
	New func(t testing.TB) core.Tracker
	// K is the site count the tracker was configured with.
	K int
	// Stream selects the generated streams.
	Stream Stream
	// Ends, if set, puts the universe's two ends into the stream: every
	// 100th item becomes 0, and every 100th item halfway between them
	// math.MaxUint64.
	Ends bool
	// PerSite is the per-site stream length for the stress tests
	// (default 8000); the sequential tests use K*PerSite items.
	PerSite int

	// Query, if non-nil, is executed inside Quiesce by the concurrent
	// stress tests to exercise the protocol's read surface mid-stream.
	Query func(tb testing.TB, tr core.Tracker)
	// CheckEquiv, if non-nil, asserts protocol-specific state equality
	// between two trackers that ingested identical input (meters and
	// engine state are always compared by the suite itself).
	CheckEquiv func(t *testing.T, a, b core.Tracker)
	// CheckFinal, if non-nil, is the law the concurrent stress runs check
	// inside Quiesce once their feeders finish, against the exact multiset
	// of the streams: each kind passes its ε-law. It sees every message of
	// the run through its Tap.
	CheckFinal Law
}

// Run executes the conformance suite as subtests of t.
func Run(t *testing.T, cfg Config) {
	if cfg.PerSite == 0 {
		cfg.PerSite = 8000
	}
	t.Run("SingleItemBatchMatchesFeed", func(t *testing.T) { runSingleItemBatch(t, cfg) })
	t.Run("BatchMatchesFeed", func(t *testing.T) { runBatchMatch(t, cfg, 19, 31, mixedChunks) })
	// The same law on burst-heavy schedules: large chunks, so single batches
	// span many crossings, and chunks that outrun the bootstrap item budget,
	// so a bootstrap hold ends mid-batch and the slow path is re-entered.
	t.Run("CoalescedMatchesSequential", func(t *testing.T) {
		t.Run("default", func(t *testing.T) { runBatchMatch(t, cfg, 53, 59, chunksIn(64, 64+3000)) })
		t.Run("longBatches", func(t *testing.T) {
			runBatchMatch(t, cfg, 53, 59, chunksIn(itemBudget+1, 2*itemBudget))
		})
	})
	// One-item batches are the maximal interleaving — every arrival takes
	// and releases the locks on its own, the schedule that found the arrival
	// dropped across the bootstrap handoff; then random chunks of up to 600,
	// and bursts of up to 2,500 that span many crossings per batch.
	t.Run("ConcurrentStress", func(t *testing.T) { runConcurrent(t, cfg, 42, 1, "concurrent") })
	t.Run("ConcurrentBatchStress", func(t *testing.T) { runConcurrent(t, cfg, 43, 600, "concurrent-batch") })
	t.Run("CoalescedStress", func(t *testing.T) { runConcurrent(t, cfg, 61, 2500, "coalesced-stress") })
	t.Run("MeterConservation", func(t *testing.T) { runMeterConservation(t, cfg) })
	t.Run("CheckpointRestore", func(t *testing.T) { runCheckpointRestore(t, cfg) })
	t.Run("ReconfigureMatchesSequential", func(t *testing.T) { runReconfigure(t, cfg) })
}

// genStream returns n deterministic items of the stream cfg.Stream selects.
func genStream(cfg Config, n int, seed int64) []uint64 {
	var g stream.Generator
	switch cfg.Stream {
	case DistinctUniform:
		g = stream.Perturb(stream.Uniform(1<<30, int64(n), seed))
	case AscendingTiesZipf:
		g = stream.PerturbTies(stream.Zipf(1<<20, int64(n), 1.2, seed), stream.TiesAscending)
	default:
		g = stream.Zipf(1<<20, int64(n), 1.2, seed)
	}
	out := make([]uint64, 0, n)
	for {
		x, ok := g.Next()
		if !ok {
			return out
		}
		if cfg.Ends {
			switch len(out) % 100 {
			case 0:
				x = 0
			case 50:
				x = math.MaxUint64
			}
		}
		out = append(out, x)
	}
}

// dealStreams deals one deterministic stream out to k per-site streams
// round-robin, so a concurrent run and a sequential replay see exactly the
// same per-site inputs.
func dealStreams(cfg Config, seed int64) [][]uint64 {
	items := genStream(cfg, cfg.K*cfg.PerSite, seed)
	out := make([][]uint64, cfg.K)
	for j := range out {
		out[j] = make([]uint64, 0, cfg.PerSite)
	}
	for i, x := range items {
		out[i%cfg.K] = append(out[i%cfg.K], x)
	}
	return out
}

// ItemLedger is what the "item" kind must read on the two sides of a feed
// comparison, A fed item by item through Feed and B through
// FeedLocalBatch. The engine meters the keys one slow-path hold forwards as
// one key list (wire.AppendKeys): Feed forwards one key a hold, a 1-word
// message per arrival, and a batch forwards its bootstrap arrivals in holds
// of up to itemBudget + 1 keys, the last ending at the handoff. Every other
// kind is metered alike on both sides.
type ItemLedger struct {
	A, B         wire.Cost
	aSite, bSite []wire.Cost
}

// Feed feeds chunk at site to a item by item through Feed and to b through
// FeedLocalBatch, and records the "item" messages each must meter: a's
// arrivals fed while it bootstraps are the forwards, the same on both sides.
func (l *ItemLedger) Feed(a, b core.Tracker, site int, chunk []uint64) {
	f := 0
	for _, x := range chunk {
		if a.Bootstrapping() {
			f++
		}
		a.Feed(site, x)
	}
	b.FeedLocalBatch(site, chunk)
	for len(l.aSite) <= site {
		l.aSite, l.bSite = append(l.aSite, wire.Cost{}), append(l.bSite, wire.Cost{})
	}
	c := wire.Cost{Msgs: int64(f), Words: int64(f)}
	l.A, l.aSite[site] = l.A.Add(c), l.aSite[site].Add(c)
	for fwd := chunk[:f]; len(fwd) > 0; {
		hold := fwd[:min(len(fwd), itemBudget+1)]
		fwd = fwd[len(hold):]
		c := wire.Cost{Msgs: 1, Words: int64(len(wire.AppendKeys(nil, slices.Sorted(slices.Values(hold)))))}
		l.B, l.bSite[site] = l.B.Add(c), l.bSite[site].Add(c)
	}
}

// site returns side a's and side b's "item" cost at site j.
func (l *ItemLedger) site(j int) (a, b wire.Cost) {
	if j < len(l.aSite) {
		return l.aSite[j], l.bSite[j]
	}
	return wire.Cost{}, wire.Cost{}
}

// minus returns c − d.
func minus(c, d wire.Cost) wire.Cost {
	return wire.Cost{Msgs: c.Msgs - d.Msgs, Words: c.Words - d.Words}
}

// checkMetersEqual asserts two trackers' meters agree in total, per kind
// and per site — the bit-for-bit pin for batched vs sequential feeding.
// With a ledger, the "item" kind must read the ledger's cost on each side
// instead, and totals and per-site costs agree once it is taken out.
func checkMetersEqual(t *testing.T, label string, a, b core.Tracker, k int, l *ItemLedger) {
	t.Helper()
	am, bm := a.Meter(), b.Meter()
	var aItem, bItem wire.Cost
	if l != nil {
		aItem, bItem = am.Kind("item"), bm.Kind("item")
		if aItem != l.A || bItem != l.B {
			t.Fatalf("%s: \"item\" metered %+v item by item and %+v batched, want %+v and %+v",
				label, aItem, bItem, l.A, l.B)
		}
	}
	if at, bt := minus(am.Total(), aItem), minus(bm.Total(), bItem); at != bt {
		t.Fatalf("%s: meter total diverged: %+v vs %+v", label, at, bt)
	}
	kinds := append(am.Kinds(), bm.Kinds()...)
	for _, kind := range kinds {
		if l != nil && kind == "item" {
			continue
		}
		if ak, bk := am.Kind(kind), bm.Kind(kind); ak != bk {
			t.Fatalf("%s: meter kind %q diverged: %+v vs %+v", label, kind, ak, bk)
		}
	}
	for j := 0; j < k; j++ {
		var ai, bi wire.Cost
		if l != nil {
			ai, bi = l.site(j)
		}
		if as, bs := minus(am.Site(j), ai), minus(bm.Site(j), bi); as != bs {
			t.Fatalf("%s: meter site %d diverged: %+v vs %+v", label, j, as, bs)
		}
	}
}

// checkEngineEqual asserts the engine-owned state of two identically fed
// trackers agrees: totals, per-site counts, version (escalation count) and
// round counters.
func checkEngineEqual(t *testing.T, label string, a, b core.Tracker, k int) {
	t.Helper()
	if a.TrueTotal() != b.TrueTotal() {
		t.Fatalf("%s: TrueTotal diverged: %d vs %d", label, a.TrueTotal(), b.TrueTotal())
	}
	if a.EstTotal() != b.EstTotal() {
		t.Fatalf("%s: EstTotal diverged: %d vs %d", label, a.EstTotal(), b.EstTotal())
	}
	if a.Rounds() != b.Rounds() {
		t.Fatalf("%s: Rounds diverged: %d vs %d", label, a.Rounds(), b.Rounds())
	}
	if a.Version() != b.Version() {
		t.Fatalf("%s: Version diverged: %d vs %d — escalation positions differ",
			label, a.Version(), b.Version())
	}
	for j := 0; j < k; j++ {
		if a.SiteCount(j) != b.SiteCount(j) {
			t.Fatalf("%s: site %d count diverged: %d vs %d", label, j, a.SiteCount(j), b.SiteCount(j))
		}
	}
}

// runSingleItemBatch verifies the degenerate-batch identity: from a fresh
// tracker, through the bootstrap handoff, Feed ≡ FeedLocalBatch of a
// one-item slice — meter and version included. Version bumps once per
// escalation, so each side's escalations are observed through it: the batch
// must escalate exactly when Feed did.
func runSingleItemBatch(t *testing.T, cfg Config) {
	a, b := cfg.New(t), cfg.New(t)
	items := genStream(cfg, cfg.K*cfg.PerSite, 17)
	for i := range items {
		site := i % cfg.K
		av, bv := a.Version(), b.Version()
		a.Feed(site, items[i])
		b.FeedLocalBatch(site, items[i:i+1])
		if fed, batched := a.Version()-av, b.Version()-bv; fed > 1 || fed != batched {
			t.Fatalf("item %d (boot %v): Feed bumped Version by %d, one-item batch by %d",
				i, a.Bootstrapping(), fed, batched)
		}
	}
	if a.Bootstrapping() {
		t.Fatalf("stream of %d items never left bootstrap: the handoff went untested", len(items))
	}
	checkMetersEqual(t, "single-item", a, b, cfg.K, nil)
	checkEngineEqual(t, "single-item", a, b, cfg.K)
	if cfg.CheckEquiv != nil {
		cfg.CheckEquiv(t, a, b)
	}
}

// feedBoth feeds one chunk at site to seq item by item through Feed and to
// bat through FeedLocalBatch, then asserts the two agree on the engine state
// and every meter count, "item" at the cost l names for each side.
// Comparing after every chunk, not only at the end, pins where the batch
// escalated: Version bumps once per escalation.
func feedBoth(t *testing.T, label string, cfg Config, seq, bat core.Tracker, site int, chunk []uint64, l *ItemLedger) {
	t.Helper()
	l.Feed(seq, bat, site, chunk)
	checkEngineEqual(t, label, seq, bat, cfg.K)
	checkMetersEqual(t, label, seq, bat, cfg.K, l)
}

// itemBudget is the engine's per-hold bootstrap drain budget in arrivals: a
// bootstrap batch longer than this cannot be forwarded under one hold.
const itemBudget = 8192

// mixedChunks draws mostly small chunks, occasionally one spanning many
// thresholds.
func mixedChunks(rng *rand.Rand) int {
	if sz := 1 + rng.Intn(130); rng.Intn(16) != 0 {
		return sz
	}
	return 1 + rng.Intn(2000)
}

// chunksIn draws chunk sizes uniformly from [lo, hi).
func chunksIn(lo, hi int) func(*rand.Rand) int {
	return func(rng *rand.Rand) int { return lo + rng.Intn(hi-lo) }
}

// runBatchMatch drives one tracker through sequential Feed and a second
// through FeedLocalBatch over the same random (site, chunk) schedule — chunk
// sizes drawn by size — asserting coordinator state and every meter count
// stay identical after every chunk. Version bumps once per escalation, so any
// divergence in escalation positions is caught.
func runBatchMatch(t *testing.T, cfg Config, streamSeed, schedSeed int64, size func(*rand.Rand) int) {
	seq, bat := cfg.New(t), cfg.New(t)
	items := genStream(cfg, cfg.K*cfg.PerSite, streamSeed)
	rng := rand.New(rand.NewSource(schedSeed))
	var l ItemLedger
	for pos := 0; pos < len(items); {
		site := rng.Intn(cfg.K)
		sz := min(size(rng), len(items)-pos)
		feedBoth(t, "batch", cfg, seq, bat, site, items[pos:pos+sz], &l)
		pos += sz
	}
	if cfg.CheckEquiv != nil {
		cfg.CheckEquiv(t, seq, bat)
	}
}

// runConcurrent hammers one FeedLocalBatch goroutine per site of a fresh
// tracker (site j's stream in chunks of 1..chunkMax items) against two query
// goroutines doing quiescent reads, then asserts exact conservation, the
// engine's accounting identities and the protocol contract (CheckFinal).
func runConcurrent(t *testing.T, cfg Config, seed int64, chunkMax int, lbl string) {
	var laws []Law
	if cfg.CheckFinal != nil {
		laws = append(laws, cfg.CheckFinal)
	}
	tr, check := newTracker(t, cfg, laws)
	streams := dealStreams(cfg, seed)
	reg := obs.NewRegistry()
	met := &engine.Metrics{
		Feeds:            reg.NewCounter("feeds_total", "test"),
		Escalations:      reg.NewCounter("escalations_total", "test"),
		SlowPathAcquires: reg.NewCounter("slow_path_acquires_total", "test"),
		SavedAcquires:    reg.NewCounter("saved_acquires_total", "test"),
	}
	tr.SetMetrics(met)

	done := make(chan struct{})
	var qwg sync.WaitGroup
	for q := 0; q < 2; q++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = tr.Version()
				tr.Quiesce(func() {
					if tr.EstTotal() > tr.TrueTotal() {
						t.Error("EstTotal overtook TrueTotal mid-stream")
					}
					if cfg.Query != nil {
						cfg.Query(t, tr)
					}
				})
			}
		}()
	}
	feedConcurrently(tr, streams, chunkMax)
	close(done)
	qwg.Wait()

	var n int64
	for _, xs := range streams {
		n += int64(len(xs))
	}
	if got := tr.TrueTotal(); got != n {
		t.Fatalf("TrueTotal = %d, want %d", got, n)
	}
	for j := 0; j < cfg.K; j++ {
		if got := tr.SiteCount(j); got != int64(len(streams[j])) {
			t.Fatalf("site %d count = %d, want %d", j, got, len(streams[j]))
		}
	}
	if est := tr.EstTotal(); est > n {
		t.Fatalf("EstTotal = %d overestimates TrueTotal %d", est, n)
	}
	// Every arrival passes the fast path once; every escalation is either
	// the one that opened a slow-path hold or one a hold absorbed, and bumps
	// Version once.
	if f := met.Feeds.Value(); f != n {
		t.Fatalf("%s: engine counted %d fast-path feeds, want TrueTotal %d", lbl, f, n)
	}
	esc, acq, saved := met.Escalations.Value(), met.SlowPathAcquires.Value(), met.SavedAcquires.Value()
	if esc == 0 || acq+saved != esc {
		t.Fatalf("%s: acquisitions %d + saved %d != escalations %d", lbl, acq, saved, esc)
	}
	if v := tr.Version(); v != uint64(esc) {
		t.Fatalf("%s: Version %d != escalations %d", lbl, v, esc)
	}
	truth := truthOf(streams)
	tr.Quiesce(func() { check(lbl, truth) })
}

// runCheckpointRestore pins the checkpoint/restore round-trip law:
// checkpoint a mid-stream tracker, restore it into a fresh instance, and
// the restored tracker must (1) agree with the live one on engine state,
// meters and protocol queries, and (2) keep agreeing after both ingest the
// same continuation stream — a restored tracker is a live tracker, not a
// frozen read replica. A second checkpoint cut mid-bootstrap pins the
// boot-phase round trip too.
func runCheckpointRestore(t *testing.T, cfg Config) {
	check := func(label string, a, b core.Tracker) {
		t.Helper()
		checkEngineEqual(t, label, a, b, cfg.K)
		checkMetersEqual(t, label, a, b, cfg.K, nil)
		if a.Bootstrapping() != b.Bootstrapping() {
			t.Fatalf("%s: Bootstrapping diverged: %v vs %v", label, a.Bootstrapping(), b.Bootstrapping())
		}
		for j := 0; j < cfg.K; j++ {
			if a.SiteSpace(j) != b.SiteSpace(j) {
				t.Fatalf("%s: site %d space diverged: %d vs %d", label, j, a.SiteSpace(j), b.SiteSpace(j))
			}
		}
		if cfg.CheckEquiv != nil {
			cfg.CheckEquiv(t, a, b)
		}
		if cfg.Query != nil {
			a.Quiesce(func() { cfg.Query(t, a) })
			b.Quiesce(func() { cfg.Query(t, b) })
		}
	}
	roundTrip := func(label string, cut int) {
		live := cfg.New(t)
		items := genStream(cfg, cfg.K*cfg.PerSite, 29)
		for i, x := range items[:cut] {
			live.Feed(i%cfg.K, x)
		}
		var buf bytes.Buffer
		if err := live.Checkpoint(&buf); err != nil {
			t.Fatalf("%s: checkpoint: %v", label, err)
		}
		restored := cfg.New(t)
		if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("%s: restore: %v", label, err)
		}
		check(label, live, restored)
		// The restored tracker must continue the protocol identically.
		for i, x := range items[cut:] {
			site := (cut + i) % cfg.K
			live.Feed(site, x)
			restored.Feed(site, x)
		}
		check(label+"+continue", live, restored)
		// Restoring into a tracker that has already fed must fail loudly.
		if err := restored.Restore(bytes.NewReader(buf.Bytes())); err == nil {
			t.Fatalf("%s: restore into a used tracker succeeded", label)
		}
	}
	roundTrip("tracking", cfg.K*cfg.PerSite*3/4)
	roundTrip("bootstrap", 3) // mid-bootstrap cut: boot state must round-trip too
}

// runReconfigure pins the membership-change law: a tracker that grows to
// k+1 sites mid-stream and later shrinks back to k must (1) behave
// deterministically — batched feeding over a shared (site, chunk) schedule
// with reconfigure points at fixed stream positions matches a sequential
// replay of the same schedule bit-for-bit, every meter count included; (2)
// conserve arrivals — TrueTotal is untouched by a membership change and the
// per-site counts always sum to it (a removed site's count folds into site
// 0); (3) keep the coordinator honest — EstTotal never overtakes TrueTotal
// across the change.
func runReconfigure(t *testing.T, cfg Config) {
	seq, bat := cfg.New(t), cfg.New(t)
	items := genStream(cfg, cfg.K*cfg.PerSite, 37)
	grow, shrink := len(items)/3, 2*len(items)/3
	rng := rand.New(rand.NewSource(41))
	curK := cfg.K
	var l ItemLedger
	apply := func(newK int) {
		for _, tr := range []core.Tracker{seq, bat} {
			before := tr.TrueTotal()
			if err := tr.Reconfigure(newK); err != nil {
				t.Fatalf("Reconfigure(%d): %v", newK, err)
			}
			if got := tr.K(); got != newK {
				t.Fatalf("K() = %d after Reconfigure(%d)", got, newK)
			}
			if got := tr.TrueTotal(); got != before {
				t.Fatalf("TrueTotal changed across Reconfigure(%d): %d -> %d", newK, before, got)
			}
			var sum int64
			for j := 0; j < newK; j++ {
				sum += tr.SiteCount(j)
			}
			if sum != before {
				t.Fatalf("site counts sum to %d after Reconfigure(%d), want %d", sum, newK, before)
			}
			if est := tr.EstTotal(); est > before {
				t.Fatalf("EstTotal %d overtook TrueTotal %d after Reconfigure(%d)", est, before, newK)
			}
		}
		curK = newK
	}
	for pos := 0; pos < len(items); {
		if pos >= shrink && curK != cfg.K {
			apply(cfg.K) // drain the added site back out
		} else if pos >= grow && pos < shrink && curK == cfg.K {
			apply(cfg.K + 1)
		}
		site := rng.Intn(curK)
		sz := 1 + rng.Intn(200)
		if pos+sz > len(items) {
			sz = len(items) - pos
		}
		// A chunk must not span a reconfigure point: the schedule pins the
		// membership change to an exact stream position on both trackers.
		for _, cut := range []int{grow, shrink} {
			if pos < cut && pos+sz > cut {
				sz = cut - pos
			}
		}
		l.Feed(seq, bat, site, items[pos:pos+sz])
		pos += sz
	}
	checkMetersEqual(t, "reconfigure", seq, bat, cfg.K, &l)
	checkEngineEqual(t, "reconfigure", seq, bat, cfg.K)
	if cfg.CheckEquiv != nil {
		cfg.CheckEquiv(t, seq, bat)
	}
	n := int64(len(items))
	if got := seq.TrueTotal(); got != n {
		t.Fatalf("TrueTotal = %d after reconfigured stream, want %d", got, n)
	}
	if est := seq.EstTotal(); est > n {
		t.Fatalf("EstTotal = %d overestimates TrueTotal %d", est, n)
	}
}

// runMeterConservation feeds a sequential stream and asserts the meter's
// directional, per-site and per-kind breakdowns all account for the same
// totals — no message is lost or double-counted by any view.
func runMeterConservation(t *testing.T, cfg Config) {
	tr := cfg.New(t)
	for i, x := range genStream(cfg, cfg.K*cfg.PerSite/2, 23) {
		tr.Feed(i%cfg.K, x)
	}
	m := tr.Meter()
	total := m.Total()
	if total.Msgs == 0 {
		t.Fatal("no communication recorded")
	}
	if got := m.UpCost().Add(m.DownCost()); got != total {
		t.Fatalf("up+down = %+v, total %+v", got, total)
	}
	var bySite, byKind struct{ msgs, words int64 }
	for j := 0; j < cfg.K; j++ {
		c := m.Site(j)
		bySite.msgs += c.Msgs
		bySite.words += c.Words
	}
	if bySite.msgs != total.Msgs || bySite.words != total.Words {
		t.Fatalf("per-site sums (%d msgs, %d words) != total %+v — messages unattributed to sites",
			bySite.msgs, bySite.words, total)
	}
	for _, kind := range m.Kinds() {
		c := m.Kind(kind)
		byKind.msgs += c.Msgs
		byKind.words += c.Words
	}
	if byKind.msgs != total.Msgs || byKind.words != total.Words {
		t.Fatalf("per-kind sums (%d msgs, %d words) != total %+v — messages unattributed to kinds",
			byKind.msgs, byKind.words, total)
	}
}
