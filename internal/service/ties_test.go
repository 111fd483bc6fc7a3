package service

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"testing"

	"disttrack/internal/durable"
	"disttrack/internal/stream"
)

// walKeys returns every key in the tenant's on-disk WAL, in log order.
func walKeys(t *testing.T, dir, tenant string) []uint64 {
	t.Helper()
	store, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ten, err := store.Tenant(tenant)
	if err != nil {
		t.Fatal(err)
	}
	var keys []uint64
	if _, err := ten.ReplayWAL(0, func(_ uint64, _ int, ks []uint64, _ string, _ uint64) error {
		keys = append(keys, ks...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return keys
}

// ingestValue feeds n copies of v to the tenant, in batches of 1,000.
func ingestValue(t *testing.T, s *Server, tenant string, v uint64, n int) {
	t.Helper()
	for n > 0 {
		b := min(n, 1000)
		recs := make([]Record, b)
		for i := range recs {
			recs[i] = Record{Tenant: tenant, Value: v}
		}
		if acc, errs := s.Ingest(recs); acc != b {
			t.Fatalf("accepted %d of %d records, errs %v", acc, b, errs)
		}
		n -= b
	}
	s.Flush()
}

// TestAscendingStateKeepsAscendingTies restores state written before ties
// were spread: testdata/durable-quantile.bin as the checkpoint, a meta.json
// that is a bare TenantConfig, and a WAL of 1,000 more copies of value 0 in
// ascending keys. The recovered tenant must keep the ascending order and
// continue value 0's count. Then it checkpoints and restarts from its own
// checkpoint alone, where the count is all it has: under the spread order
// copy number 32,768 of 0 would take low bits 256, a key already issued.
// Each boot feeds 2^14 + 1 more copies of 0, past that point; no key is
// issued twice and no tie is counted.
func TestAscendingStateKeepsAscendingTies(t *testing.T) {
	golden, err := os.ReadFile("testdata/durable-quantile.bin")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	ten, err := store.Tenant(goldenPerturbConfig.Name)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := json.Marshal(goldenPerturbConfig)
	if err != nil {
		t.Fatal(err)
	}
	if err := ten.Create(meta); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ten.WriteCheckpoint(0, golden); err != nil {
		t.Fatal(err)
	}
	// The golden stream's keys, then the WAL's, continuing value 0's count.
	old := drainKeys(stream.PerturbTies(stream.FromSlice(goldenPerturbValues()), stream.TiesAscending))
	copies := uint32(0)
	for _, k := range old {
		if stream.Unperturb(k) == 0 {
			copies++
		}
	}
	if err := ten.OpenWAL(1); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 10; r++ {
		keys := make([]uint64, 100)
		for i := range keys {
			keys[i] = stream.Key(0, copies, stream.TiesAscending)
			copies++
		}
		if _, err := ten.Append(0, keys, "", 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := ten.Close(); err != nil {
		t.Fatal(err)
	}

	const more = 1<<14 + 1
	for boot := 1; boot <= 2; boot++ {
		s := openDurable(t, dir)
		tn := s.Registry().Get(goldenPerturbConfig.Name)
		if tn == nil {
			t.Fatalf("boot %d: tenant not recovered", boot)
		}
		if tn.order != stream.TiesAscending {
			t.Fatalf("boot %d: recovered tie order %d, want TiesAscending", boot, tn.order)
		}
		ingestValue(t, s, goldenPerturbConfig.Name, 0, more)
		if ties := tn.Stats().Ties; ties != 0 {
			t.Fatalf("boot %d: Ties = %d, want 0", boot, ties)
		}
		checkpointAll(t, s)
		abandon(s)
	}

	keys := walKeys(t, dir, goldenPerturbConfig.Name)
	if want := 1000 + 2*more; len(keys) != want {
		t.Fatalf("%d keys in the WAL, want %d", len(keys), want)
	}
	for i, k := range keys[1000:] {
		if want := stream.Key(0, copies+uint32(i), stream.TiesAscending); k != want {
			t.Fatalf("new copy %d has key %#x, want %#x", i, k, want)
		}
	}
	seen := make(map[uint64]bool, len(old)+len(keys))
	for i, k := range append(old, keys...) {
		if seen[k] {
			t.Fatalf("key %#x (number %d) issued twice", k, i)
		}
		seen[k] = true
	}
}

// TestSpreadTiesSurviveRestart checks that a new tenant records the spread
// order in meta.json and keeps it across a crash with no checkpoint: the
// copies of a value before and after recovery take the spread keys of
// copies 0, 1, 2, ... (the counter derived from the WAL alone).
func TestSpreadTiesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := TenantConfig{Name: "q", Kind: KindQuantile, K: 1, Eps: 0.1}
	s := openDurable(t, dir)
	if _, err := s.Registry().Create(cfg); err != nil {
		t.Fatal(err)
	}
	ingestValue(t, s, cfg.Name, 5, 3)
	abandon(s)

	s = openDurable(t, dir)
	tn := s.Registry().Get(cfg.Name)
	if tn == nil {
		t.Fatal("tenant not recovered")
	}
	if tn.order != stream.TiesSpread {
		t.Fatalf("recovered tie order %d, want TiesSpread", tn.order)
	}
	ingestValue(t, s, cfg.Name, 5, 2)
	abandon(s)

	keys := walKeys(t, dir, cfg.Name)
	if len(keys) != 5 {
		t.Fatalf("%d keys in the WAL, want 5", len(keys))
	}
	for s, k := range keys {
		if want := stream.Key(5, uint32(s), stream.TiesSpread); k != want {
			t.Fatalf("copy %d has key %#x, want %#x", s, k, want)
		}
	}
}

func drainKeys(g stream.Generator) []uint64 {
	var out []uint64
	for {
		x, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, x)
	}
}

// FuzzReplayKeys replays arbitrary keys into a fresh tenant, as recovery
// does from a WAL, then issues three new keys for the value of each
// replayed key. Whatever the keys and in either tie order, a new key carries
// its value and is neither a replayed key nor an earlier new one, unless
// its issue was counted in Ties (the value's 2^24 keys were used up).
func FuzzReplayKeys(f *testing.F) {
	f.Add(false, []byte{})
	f.Add(true, binary.LittleEndian.AppendUint64(nil, 7<<24|0x800000))
	f.Add(false, binary.LittleEndian.AppendUint64(nil, 7<<24|0xFFFFFF))
	f.Add(true, binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 6<<24|1), 6<<24|0xFFFFFF))
	f.Fuzz(func(t *testing.T, ascending bool, data []byte) {
		order := stream.TiesSpread
		if ascending {
			order = stream.TiesAscending
		}
		var keys []uint64
		for len(data) >= 8 && len(keys) < 64 {
			keys = append(keys, binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
		tn, err := newTenant(TenantConfig{Name: "f", Kind: KindQuantile, K: 1, Eps: 0.1}, order, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer tn.close(false)
		replayed := append([]uint64(nil), keys...) // the cluster owns the batch
		if err := tn.replayBatch(0, keys); err != nil {
			t.Fatal(err)
		}
		used := make(map[uint64]bool, len(replayed))
		for _, k := range replayed {
			used[k] = true
		}
		tn.durMu.Lock()
		defer tn.durMu.Unlock()
		for _, k := range replayed {
			v := stream.Unperturb(k)
			for i := 0; i < 3; i++ {
				ties := tn.ties.Load()
				nk := tn.perturb(v)
				if stream.Unperturb(nk) != v {
					t.Fatalf("key %#x issued for value %d", nk, v)
				}
				if used[nk] && tn.ties.Load() == ties {
					t.Fatalf("key %#x issued again, uncounted, after replaying %#x", nk, replayed)
				}
				used[nk] = true
			}
		}
	})
}
