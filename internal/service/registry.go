package service

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"disttrack/internal/stream"
)

// ErrExists is returned (wrapped) by Create when the tenant name is taken.
var ErrExists = errors.New("tenant already exists")

// Registry owns the tenants: named tracker instances with create / get /
// delete / list lifecycle. All methods are safe for concurrent use.
type Registry struct {
	siteBuffer int

	// met, when set (by service.New), instruments every tenant the registry
	// creates and cleans its series up on delete. Nil registries (direct
	// NewRegistry callers, tests) run uninstrumented.
	met *serverMetrics

	// dur, when set (by service.Open with a data directory), gives every
	// created tenant a WAL and persisted config, and drops that state on
	// delete. createMu then serializes durable lifecycle transitions —
	// without it, a delete racing a create of the same name could leave the
	// new tenant's WAL handle pointing at a removed directory.
	dur      *durability
	createMu sync.Mutex

	// snap is the published name → tenant index: an immutable map that
	// readers load and index without taking a lock or writing a shared cache
	// line (Get runs once per run of records on the ingest path and once per
	// delivery). Writers — create, delete, close: rare — copy it
	// under mu and publish the copy.
	mu   sync.Mutex
	snap atomic.Pointer[map[string]*Tenant]
}

// NewRegistry returns an empty registry whose tenants use the given
// per-site cluster buffer.
func NewRegistry(siteBuffer int) *Registry {
	if siteBuffer < 1 {
		siteBuffer = 128
	}
	r := &Registry{siteBuffer: siteBuffer}
	r.snap.Store(&map[string]*Tenant{})
	return r
}

// all returns the current snapshot of live tenants, keyed by name. Callers
// must not modify it.
func (r *Registry) all() map[string]*Tenant { return *r.snap.Load() }

// publish replaces the snapshot with a copy in which name maps to t (nil
// removes the name). Caller holds mu.
func (r *Registry) publish(name string, t *Tenant) {
	m := maps.Clone(r.all())
	if t == nil {
		delete(m, name)
	} else {
		m[name] = t
	}
	r.snap.Store(&m)
}

// Create validates tc, builds the tracker and its cluster, and registers
// the tenant. It fails if the name is taken. On a durable registry the
// tenant's config and WAL are persisted before the tenant becomes visible,
// so a crash at any point either recovers the tenant or never knew it.
func (r *Registry) Create(tc TenantConfig) (*Tenant, error) {
	if err := tc.validate(); err != nil {
		return nil, err
	}
	if r.dur != nil {
		r.createMu.Lock()
		defer r.createMu.Unlock()
		if r.Get(tc.Name) != nil {
			return nil, fmt.Errorf("tenant %q: %w", tc.Name, ErrExists)
		}
	}
	// Build outside the lock (tracker construction allocates per-site
	// state), then insert; racing creates of the same name lose cleanly.
	t, err := newTenant(tc, stream.TiesSpread, r.siteBuffer, r.met)
	if err != nil {
		return nil, err
	}
	if r.dur != nil {
		// Under createMu and pre-checked above, so the durable state cannot
		// be set up twice; published before insert, so the ingest path never
		// sees a tenant whose WAL is still opening.
		if err := r.dur.setupTenant(t); err != nil {
			t.close(false)
			return nil, fmt.Errorf("tenant %q: durable setup: %w", tc.Name, err)
		}
	}
	if err := r.insert(t); err != nil {
		t.close(false)
		if t.dur != nil {
			t.dur.Close()
		}
		return nil, err
	}
	return t, nil
}

// insert registers an already-built tenant (Create, and boot recovery).
func (r *Registry) insert(t *Tenant) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.all()[t.cfg.Name]; ok {
		return fmt.Errorf("tenant %q: %w", t.cfg.Name, ErrExists)
	}
	r.publish(t.cfg.Name, t)
	if r.met != nil {
		r.met.bindTenant(t)
	}
	return nil
}

// Get returns the named tenant, or nil if absent. It is lock-free.
func (r *Registry) Get(name string) *Tenant { return r.all()[name] }

// Delete unregisters the named tenant and stops its cluster. With drain
// set, arrivals already enqueued are processed first; otherwise they are
// dropped. It reports whether the tenant existed.
func (r *Registry) Delete(name string, drain bool) bool {
	if r.dur != nil {
		r.createMu.Lock()
		defer r.createMu.Unlock()
	}
	r.mu.Lock()
	t, ok := r.all()[name]
	if ok {
		r.publish(name, nil)
		if r.met != nil {
			r.met.forgetTenant(name)
		}
	}
	r.mu.Unlock()
	if !ok {
		return false
	}
	t.close(drain)
	if t.dur != nil {
		// Deleting a tenant deletes its durable state too: a tenant that no
		// longer exists must not resurrect on the next boot.
		if err := t.dur.Drop(); err != nil && r.met != nil {
			r.met.ckptErrors.Inc()
		}
	}
	return true
}

// Count returns the number of live tenants.
func (r *Registry) Count() int { return len(r.all()) }

// List returns the configurations of all tenants, sorted by name.
func (r *Registry) List() []TenantConfig {
	ts := r.all()
	out := make([]TenantConfig, 0, len(ts))
	for _, t := range ts {
		out = append(out, t.Config())
	}
	slices.SortFunc(out, func(a, b TenantConfig) int { return cmp.Compare(a.Name, b.Name) })
	return out
}

// Close drains and removes every tenant.
func (r *Registry) Close() {
	r.mu.Lock()
	ts := r.all()
	r.snap.Store(&map[string]*Tenant{})
	r.mu.Unlock()
	for _, t := range ts {
		t.close(true)
	}
}
