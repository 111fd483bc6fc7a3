package service

import (
	"bytes"
	"os"
	"testing"
	"time"

	"disttrack/internal/ckpt"
)

// goldenPerturbConfig and goldenPerturbValues are the tenant and stream
// behind testdata/durable-quantile.bin: a few hundred values with many
// repeats, value 0 and the largest value the perturbation accepts.
var goldenPerturbConfig = TenantConfig{Name: "q", Kind: KindQuantile, K: 1, Eps: 0.1}

func goldenPerturbValues() []uint64 {
	vs := make([]uint64, 0, 320)
	for i := 0; i < 320; i++ {
		switch {
		case i%40 == 0:
			vs = append(vs, 0)
		case i%37 == 0:
			vs = append(vs, MaxPerturbedValue-1)
		default:
			vs = append(vs, uint64(i*i%89)<<8|uint64(i%3))
		}
	}
	return vs
}

// captureDurable returns tn's durable payload once its cluster has absorbed
// everything sent, as checkpointTenant captures it.
func captureDurable(t *testing.T, tn *Tenant) []byte {
	t.Helper()
	tn.durMu.Lock()
	defer tn.durMu.Unlock()
	for !tn.synced() {
		time.Sleep(100 * time.Microsecond)
	}
	payload, err := tn.encodeDurable()
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// seqSection returns the payload's bytes before the tracker blob: the tenant
// name and the perturbation counters.
func seqSection(t *testing.T, payload []byte) []byte {
	t.Helper()
	dec := ckpt.NewDecoder(payload)
	_ = dec.String()
	if dec.Bool() {
		for n := dec.Count(12); n > 0; n-- {
			dec.U64()
			dec.U32()
		}
	}
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	return payload[:len(payload)-dec.Remaining()]
}

// TestDurablePayloadGolden pins a perturbed tenant's durable payload, captured
// from goldenPerturbConfig fed goldenPerturbValues at the commit before the
// perturbation counters left a Go map (never regenerate the file). Restoring
// it and encoding again reproduces it bit for bit, and a tenant fed the same
// stream today writes the same perturbation counters.
func TestDurablePayloadGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/durable-quantile.bin")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	defer s.Close()
	tn, err := s.Registry().Create(goldenPerturbConfig)
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.restoreDurable(golden); err != nil {
		t.Fatal(err)
	}
	if got := captureDurable(t, tn); !bytes.Equal(got, golden) {
		t.Fatalf("restore + encode wrote %d bytes that differ from the %d golden bytes", len(got), len(golden))
	}

	fed := New(Config{})
	defer fed.Close()
	live, err := fed.Registry().Create(goldenPerturbConfig)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for _, v := range goldenPerturbValues() {
		recs = append(recs, Record{Tenant: goldenPerturbConfig.Name, Value: v})
	}
	if acc, errs := fed.Ingest(recs); acc != len(recs) {
		t.Fatalf("accepted %d of %d records, errs %v", acc, len(recs), errs)
	}
	fed.Flush()
	if got, want := seqSection(t, captureDurable(t, live)), seqSection(t, golden); !bytes.Equal(got, want) {
		t.Fatalf("fed tenant's perturbation counters encode as %x\nwant %x", got, want)
	}
}
