package wireobs

import (
	"strings"
	"testing"

	"disttrack/internal/obs"
	"disttrack/internal/wire"
)

func expose(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestBridgeSyncMirrorsMeter(t *testing.T) {
	reg := obs.NewRegistry()
	b := New(reg, "test_wire", true)
	var m wire.Meter
	m.Up(0, "delta", 3)
	m.Down(0, "adjust", 2)
	m.UpTenant("clicks", 1, "tbatch", 5)

	b.Sync("siteA", &m)
	out := expose(t, reg)
	for _, want := range []string{
		`test_wire_msgs_total{owner="siteA",dir="up"} 2`,
		`test_wire_msgs_total{owner="siteA",dir="down"} 1`,
		`test_wire_words_total{owner="siteA",dir="up"} 8`,
		`test_wire_words_total{owner="siteA",dir="down"} 2`,
		`test_wire_tenant_words_total{owner="siteA",tenant="clicks"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestBridgeSyncIsIdempotentAndDeltaBased(t *testing.T) {
	reg := obs.NewRegistry()
	b := New(reg, "test_wire", true)
	var m wire.Meter
	m.Up(0, "delta", 3)

	b.Sync("s", &m)
	b.Sync("s", &m) // no meter movement → no counter movement
	m.Up(0, "delta", 4)
	b.Sync("s", &m)

	out := expose(t, reg)
	if !strings.Contains(out, `test_wire_msgs_total{owner="s",dir="up"} 2`) {
		t.Fatalf("msgs not delta-mirrored:\n%s", out)
	}
	if !strings.Contains(out, `test_wire_words_total{owner="s",dir="up"} 7`) {
		t.Fatalf("words not delta-mirrored:\n%s", out)
	}
}

func TestBridgeStaysMonotoneAcrossMeterReset(t *testing.T) {
	reg := obs.NewRegistry()
	b := New(reg, "test_wire", true)
	var m wire.Meter
	m.Up(0, "delta", 10)
	b.Sync("s", &m)

	m.Reset()
	b.Sync("s", &m) // cur below last → re-base, no negative add
	m.Up(0, "delta", 2)
	b.Sync("s", &m)

	out := expose(t, reg)
	// 1 msg / 10 words before the reset, plus 1 msg / 2 words after.
	if !strings.Contains(out, `test_wire_msgs_total{owner="s",dir="up"} 2`) ||
		!strings.Contains(out, `test_wire_words_total{owner="s",dir="up"} 12`) {
		t.Fatalf("counters not monotone across reset:\n%s", out)
	}
}

func TestBridgeForgetDropsSeriesAndState(t *testing.T) {
	reg := obs.NewRegistry()
	b := New(reg, "test_wire", true)
	var ma, mb wire.Meter
	ma.UpTenant("t1", 0, "tbatch", 4)
	mb.Up(0, "delta", 1)
	b.Sync("gone", &ma)
	b.Sync("kept", &mb)

	b.Forget("gone")
	out := expose(t, reg)
	if strings.Contains(out, `owner="gone"`) {
		t.Fatalf("forgotten owner still exported:\n%s", out)
	}
	if !strings.Contains(out, `test_wire_msgs_total{owner="kept",dir="up"} 1`) {
		t.Fatalf("surviving owner lost:\n%s", out)
	}
	for k := range b.last {
		if k.owner == "gone" {
			t.Fatalf("stale delta state for %v", k)
		}
	}
}

func TestBridgeWithoutTenantFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	b := New(reg, "test_wire", false)
	var m wire.Meter
	m.UpTenant("clicks", 0, "tbatch", 5)
	b.Sync("s", &m)
	out := expose(t, reg)
	if strings.Contains(out, "test_wire_tenant_") {
		t.Fatalf("bridge without byTenant exports tenant families:\n%s", out)
	}
	if !strings.Contains(out, `test_wire_words_total{owner="s",dir="up"} 5`) {
		t.Fatalf("direction totals missing:\n%s", out)
	}
}
