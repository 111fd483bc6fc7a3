package wire

import (
	"strings"
	"testing"
)

func TestMeterTotals(t *testing.T) {
	var m Meter
	m.Up(0, "delta", 2)
	m.Up(1, "delta", 2)
	m.Down(0, "ack", 1)
	got := m.Total()
	if got.Msgs != 3 || got.Words != 5 {
		t.Fatalf("Total = %+v, want {3 5}", got)
	}
	if up := m.UpCost(); up.Msgs != 2 || up.Words != 4 {
		t.Fatalf("UpCost = %+v, want {2 4}", up)
	}
	if down := m.DownCost(); down.Msgs != 1 || down.Words != 1 {
		t.Fatalf("DownCost = %+v, want {1 1}", down)
	}
}

func TestMeterMinimumWordPerMessage(t *testing.T) {
	var m Meter
	m.Up(0, "ping", 0)
	m.Up(0, "ping", -5)
	if got := m.Total(); got.Words != 2 {
		t.Fatalf("zero/negative-size messages should cost 1 word each, got %d", got.Words)
	}
}

func TestMeterBroadcast(t *testing.T) {
	var m Meter
	m.Broadcast("round", 3, 5)
	got := m.Total()
	if got.Msgs != 5 || got.Words != 15 {
		t.Fatalf("Broadcast(3 words, k=5) = %+v, want {5 15}", got)
	}
	if d := m.DownCost(); d != got {
		t.Fatalf("broadcast must be all downstream, got down=%+v total=%+v", d, got)
	}
}

func TestMeterByKindAndSite(t *testing.T) {
	var m Meter
	m.Up(2, "delta", 1)
	m.Up(2, "delta", 1)
	m.Up(0, "count", 4)
	if c := m.Kind("delta"); c.Msgs != 2 || c.Words != 2 {
		t.Fatalf("Kind(delta) = %+v", c)
	}
	if c := m.Kind("count"); c.Msgs != 1 || c.Words != 4 {
		t.Fatalf("Kind(count) = %+v", c)
	}
	if c := m.Kind("nope"); c != (Cost{}) {
		t.Fatalf("unknown kind should be zero, got %+v", c)
	}
	if c := m.Site(2); c.Msgs != 2 {
		t.Fatalf("Site(2) = %+v", c)
	}
	if c := m.Site(99); c != (Cost{}) {
		t.Fatalf("out-of-range site should be zero, got %+v", c)
	}
	kinds := m.Kinds()
	if len(kinds) != 2 || kinds[0] != "count" || kinds[1] != "delta" {
		t.Fatalf("Kinds = %v, want sorted [count delta]", kinds)
	}
}

func TestMeterByTenant(t *testing.T) {
	var m Meter
	m.UpTenant("acme", 0, "tbatch", 10)
	m.UpTenant("acme", 1, "tbatch", 5)
	m.DownTenant("beta", 0, "tack", 0) // floors at one word
	if c := m.Tenant("acme"); c.Msgs != 2 || c.Words != 15 {
		t.Fatalf("Tenant(acme) = %+v, want {2 15}", c)
	}
	if c := m.Tenant("beta"); c.Msgs != 1 || c.Words != 1 {
		t.Fatalf("Tenant(beta) = %+v, want {1 1}", c)
	}
	if c := m.Tenant("nope"); c != (Cost{}) {
		t.Fatalf("unknown tenant should be zero, got %+v", c)
	}
	// Tenant recording still feeds the directional and per-kind totals.
	if up := m.UpCost(); up.Msgs != 2 || up.Words != 15 {
		t.Fatalf("UpCost = %+v, want {2 15}", up)
	}
	if c := m.Kind("tack"); c.Msgs != 1 {
		t.Fatalf("Kind(tack) = %+v", c)
	}
	ts := m.Tenants()
	if len(ts) != 2 || ts[0] != "acme" || ts[1] != "beta" {
		t.Fatalf("Tenants = %v, want sorted [acme beta]", ts)
	}
	m.Reset()
	if len(m.Tenants()) != 0 || m.Tenant("acme") != (Cost{}) {
		t.Fatal("Reset should clear tenant attribution")
	}
}

func TestMeterReset(t *testing.T) {
	var m Meter
	m.Up(0, "x", 7)
	m.Reset()
	if got := m.Total(); got != (Cost{}) {
		t.Fatalf("after Reset, Total = %+v, want zero", got)
	}
	if len(m.Kinds()) != 0 {
		t.Fatalf("after Reset, kinds = %v, want none", m.Kinds())
	}
}

func TestCostAdd(t *testing.T) {
	a := Cost{Msgs: 1, Words: 2}
	b := Cost{Msgs: 10, Words: 20}
	if got := a.Add(b); got.Msgs != 11 || got.Words != 22 {
		t.Fatalf("Add = %+v", got)
	}
}

func TestMeterString(t *testing.T) {
	var m Meter
	m.Up(0, "delta", 2)
	s := m.String()
	for _, want := range []string{"total:", "delta"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}
