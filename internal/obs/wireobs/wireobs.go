// Package wireobs bridges wire.Meter — the paper's communication-cost
// accounting, deliberately unsynchronized and owned by the protocol locks —
// into the obs metrics plane. A Bridge owns counter families for messages
// and words and mirrors a meter's monotone totals into them as deltas, so
// the exported series stay valid Prometheus counters while the meter itself
// remains lock-free on the protocol side.
//
// Sync must run while the meter is externally quiescent (inside
// Engine.Quiesce for tracker meters, or under the owning mutex for transport
// meters) and serialized across callers — the natural
// place is an obs scrape hook, which the Registry already serializes.
package wireobs

import (
	"disttrack/internal/obs"
	"disttrack/internal/wire"
)

// Bridge mirrors one or more wire.Meters into obs counters. The "owner"
// label distinguishes meters sharing the bridge (the service uses the
// tenant name); a bridge built with byTenant also exports a transport
// meter's per-tenant attribution.
type Bridge struct {
	msgs       *obs.CounterVec // {owner, dir}
	words      *obs.CounterVec // {owner, dir}
	byTenMsgs  *obs.CounterVec // {owner, tenant} — Meter.*Tenant attribution; nil without byTenant
	byTenWords *obs.CounterVec // {owner, tenant}

	last map[lkey]wire.Cost
}

// lkey addresses one mirrored series in the delta state.
type lkey struct {
	owner string
	dim   string // "dir" or "tenant"
	val   string
}

// New registers the bridge's counter families under the given name prefix
// (e.g. "disttrack_wire" → disttrack_wire_msgs_total, ...), plus the
// per-tenant attribution families when byTenant is set. One bridge per
// prefix per registry.
func New(reg *obs.Registry, prefix string, byTenant bool) *Bridge {
	b := &Bridge{
		msgs: reg.NewCounterVec(prefix+"_msgs_total",
			"Protocol messages by direction (up = site to coordinator).", "owner", "dir"),
		words: reg.NewCounterVec(prefix+"_words_total",
			"Protocol words (Theta(log n) bits each) by direction.", "owner", "dir"),
		last: make(map[lkey]wire.Cost),
	}
	if byTenant {
		b.byTenMsgs = reg.NewCounterVec(prefix+"_tenant_msgs_total",
			"Protocol messages attributed to a tenant by the transport meter.", "owner", "tenant")
		b.byTenWords = reg.NewCounterVec(prefix+"_tenant_words_total",
			"Protocol words attributed to a tenant by the transport meter.", "owner", "tenant")
	}
	return b
}

// Sync mirrors m's current totals into the bridge's counters, attributing
// them to owner. The caller must hold whatever excludes writers of m and
// must serialize Sync calls (an obs scrape hook satisfies both).
func (b *Bridge) Sync(owner string, m *wire.Meter) {
	b.sync(b.msgs, b.words, owner, "dir", "up", m.UpCost())
	b.sync(b.msgs, b.words, owner, "dir", "down", m.DownCost())
	if b.byTenMsgs == nil {
		return
	}
	for _, t := range m.Tenants() {
		b.sync(b.byTenMsgs, b.byTenWords, owner, "tenant", t, m.Tenant(t))
	}
}

// Forget drops the delta state and exported series for an owner whose meter
// is gone (a deleted tenant); without it the stale series would be exported
// forever and the delta map would grow without bound.
func (b *Bridge) Forget(owner string) {
	for k := range b.last {
		if k.owner != owner {
			continue
		}
		delete(b.last, k)
		if k.dim == "dir" {
			b.msgs.Remove(owner, k.val)
			b.words.Remove(owner, k.val)
		} else {
			b.byTenMsgs.Remove(owner, k.val)
			b.byTenWords.Remove(owner, k.val)
		}
	}
}

// sync adds the delta between cur and the last mirrored cost for one series
// pair. A meter reset (cur below last) re-bases without a negative add —
// the counters stay monotone, as Prometheus requires.
func (b *Bridge) sync(msgs, words *obs.CounterVec, owner, dim, val string, cur wire.Cost) {
	k := lkey{owner: owner, dim: dim, val: val}
	prev := b.last[k]
	if cur.Msgs < prev.Msgs || cur.Words < prev.Words {
		prev = wire.Cost{}
	}
	b.last[k] = cur
	if d := cur.Msgs - prev.Msgs; d > 0 {
		msgs.With(owner, val).Add(d)
	}
	if d := cur.Words - prev.Words; d > 0 {
		words.With(owner, val).Add(d)
	}
}
