package service

import (
	"strings"
	"testing"

	"disttrack/internal/remote"
)

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry(8)
	defer r.Close()

	if _, err := r.Create(TenantConfig{Name: "a", Kind: KindHH, K: 2, Eps: 0.1}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create(TenantConfig{Name: "b", Kind: KindQuantile, K: 2, Eps: 0.1}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create(TenantConfig{Name: "a", Kind: KindAllQ, K: 2, Eps: 0.1}); err == nil {
		t.Fatal("duplicate create should fail")
	} else if !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("duplicate create error %q lacks 'already exists'", err)
	}

	list := r.List()
	if len(list) != 2 || list[0].Name != "a" || list[1].Name != "b" {
		t.Fatalf("List = %+v, want [a b]", list)
	}
	// Quantile default phi filled in.
	if got := list[1].Phis; len(got) != 1 || got[0] != 0.5 {
		t.Fatalf("quantile default phis = %v, want [0.5]", got)
	}

	if r.Get("a") == nil || r.Get("nope") != nil {
		t.Fatal("Get misbehaves")
	}
	if !r.Delete("a", true) {
		t.Fatal("Delete existing = false")
	}
	if r.Delete("a", true) {
		t.Fatal("Delete deleted = true")
	}
	if r.Get("a") != nil {
		t.Fatal("deleted tenant still resolvable")
	}
}

func TestTenantConfigValidation(t *testing.T) {
	r := NewRegistry(8)
	defer r.Close()
	bad := []TenantConfig{
		{Name: "", Kind: KindHH, K: 2, Eps: 0.1},
		{Name: "x/y", Kind: KindHH, K: 2, Eps: 0.1},
		{Name: "x", Kind: "nope", K: 2, Eps: 0.1},
		{Name: "x", Kind: KindHH, K: 0, Eps: 0.1},
		{Name: "x", Kind: KindHH, K: 2, Eps: 0},
		{Name: "x", Kind: KindHH, K: 2, Eps: 1},
		{Name: "x", Kind: KindQuantile, K: 2, Eps: 0.1, Phis: []float64{1.5}},
		{Name: "x", Kind: KindHH, K: 2, Eps: 0.1, Phis: []float64{0.5}},
		// A name no site node frame could carry.
		{Name: strings.Repeat("x", remote.MaxTenantLen+1), Kind: KindHH, K: 2, Eps: 0.1},
	}
	for _, tc := range bad {
		if _, err := r.Create(tc); err == nil {
			t.Errorf("Create(%+v) should fail", tc)
		}
	}
	if _, err := r.Create(TenantConfig{Name: strings.Repeat("x", remote.MaxTenantLen), Kind: KindHH, K: 2, Eps: 0.1}); err != nil {
		t.Errorf("a %d-byte name should be accepted: %v", remote.MaxTenantLen, err)
	}
}
