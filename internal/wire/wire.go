// Package wire provides communication-cost accounting for the distributed
// tracking protocols.
//
// The paper measures communication in words, where a word is Θ(log u) =
// Θ(log n) bits, and its lower bounds count messages. Meter records both, in
// both directions (site→coordinator is "up", coordinator→site is "down"),
// with an optional per-kind breakdown so experiments can attribute cost to
// protocol phases (deltas, collects, broadcasts, rebuilds, ...).
//
// A message written out as words goes through UpMsg or DownMsg, which show
// it to the one tap tests replay protocols through (docs/architecture.md,
// "What the rank kinds share"). A message's words are the length of its
// real encoding, packed fields included: a value the receiver can bound
// travels in the bits it needs (AppendPacked, AppendPair, AppendBits), not in
// a word of its own.
package wire

import (
	"fmt"
	"sort"
	"strings"
)

// Cost is a (messages, words) pair.
type Cost struct {
	Msgs  int64
	Words int64
}

// Add returns the component-wise sum of c and d.
func (c Cost) Add(d Cost) Cost { return Cost{c.Msgs + d.Msgs, c.Words + d.Words} }

// Meter accumulates communication cost. The zero value is ready to use.
// Meter is not safe for concurrent use; protocol engines serialize access.
type Meter struct {
	up       Cost
	down     Cost
	kindsOff bool // skip per-kind accounting (see DisableKindBreakdown)
	byKind   map[string]Cost
	bySite   []Cost // grown on demand, indexed by site
	byTenant map[string]Cost
	tap      func(kind string, site int, words []uint64)
}

// Up records one site→coordinator message of the given kind and size.
func (m *Meter) Up(site int, kind string, words int) { m.record(true, site, kind, words) }

// Down records one coordinator→site message of the given kind and size.
func (m *Meter) Down(site int, kind string, words int) { m.record(false, site, kind, words) }

// UpMsg records site's message of the given kind whose payload is words: it
// meters len(words) and shows the message to the tap.
func (m *Meter) UpMsg(site int, kind string, words []uint64) { m.msg(true, site, kind, words) }

// DownMsg records a coordinator message to site as UpMsg does.
func (m *Meter) DownMsg(site int, kind string, words []uint64) { m.msg(false, site, kind, words) }

func (m *Meter) msg(up bool, site int, kind string, words []uint64) {
	m.record(up, site, kind, len(words))
	if m.tap != nil {
		m.tap(kind, site, words)
	}
}

// SetTap installs tap to see every message UpMsg and DownMsg record, as sent
// (nil removes it). Tests set it to replay a protocol's messages; it is not
// part of the meter's state, so Reset and SetState keep it.
func (m *Meter) SetTap(tap func(kind string, site int, words []uint64)) { m.tap = tap }

// UpTenant records one site→coordinator message attributed to a tenant, for
// multi-tenant transports where one link carries many tenants' deltas.
func (m *Meter) UpTenant(tenant string, site int, kind string, words int) {
	m.record(true, site, kind, words)
	m.tenantAdd(tenant, words)
}

// DownTenant records one coordinator→site message attributed to a tenant.
func (m *Meter) DownTenant(tenant string, site int, kind string, words int) {
	m.record(false, site, kind, words)
	m.tenantAdd(tenant, words)
}

func (m *Meter) tenantAdd(tenant string, words int) {
	if words < 1 {
		words = 1
	}
	if m.byTenant == nil {
		m.byTenant = make(map[string]Cost)
	}
	m.byTenant[tenant] = m.byTenant[tenant].Add(Cost{Msgs: 1, Words: int64(words)})
}

// Broadcast records a coordinator message of the given size sent to each of
// k sites (k separate messages, as the model has no multicast).
func (m *Meter) Broadcast(kind string, words, k int) {
	for j := 0; j < k; j++ {
		m.Down(j, kind, words)
	}
}

func (m *Meter) record(up bool, site int, kind string, words int) {
	if words < 1 {
		words = 1 // a message carries at least its type
	}
	c := Cost{Msgs: 1, Words: int64(words)}
	if up {
		m.up = m.up.Add(c)
	} else {
		m.down = m.down.Add(c)
	}
	if !m.kindsOff {
		if m.byKind == nil {
			m.byKind = make(map[string]Cost)
		}
		m.byKind[kind] = m.byKind[kind].Add(c)
	}
	for site >= len(m.bySite) {
		m.bySite = append(m.bySite, Cost{})
	}
	if site >= 0 {
		m.bySite[site] = m.bySite[site].Add(c)
	}
}

// DisableKindBreakdown stops per-kind accounting: record skips the map
// lookup and insert entirely, which matters to deployments that only read
// Total (the multi-tenant service) — the per-kind map hashes a string on
// every message. Kind and Kinds return zero values afterwards. Totals,
// per-site and per-tenant accounting are unaffected. Call it before the
// first message; it does not clear kinds already recorded.
func (m *Meter) DisableKindBreakdown() { m.kindsOff = true }

// Total returns the total cost in both directions.
func (m *Meter) Total() Cost { return m.up.Add(m.down) }

// UpCost returns the site→coordinator cost.
func (m *Meter) UpCost() Cost { return m.up }

// DownCost returns the coordinator→site cost.
func (m *Meter) DownCost() Cost { return m.down }

// Kind returns the accumulated cost for one message kind.
func (m *Meter) Kind(kind string) Cost { return m.byKind[kind] }

// Kinds returns the sorted list of message kinds seen so far.
func (m *Meter) Kinds() []string {
	ks := make([]string, 0, len(m.byKind))
	for k := range m.byKind {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Tenant returns the accumulated cost attributed to one tenant (both
// directions). Only the *Tenant recording methods contribute to it.
func (m *Meter) Tenant(name string) Cost { return m.byTenant[name] }

// Tenants returns the sorted list of tenants with attributed cost.
func (m *Meter) Tenants() []string {
	ts := make([]string, 0, len(m.byTenant))
	for t := range m.byTenant {
		ts = append(ts, t)
	}
	sort.Strings(ts)
	return ts
}

// Site returns the accumulated cost attributed to one site (both directions).
func (m *Meter) Site(j int) Cost {
	if j < 0 || j >= len(m.bySite) {
		return Cost{}
	}
	return m.bySite[j]
}

// Reset clears all counters.
func (m *Meter) Reset() {
	m.up, m.down = Cost{}, Cost{}
	m.byKind = nil
	m.bySite = nil
	m.byTenant = nil
}

// String renders a compact human-readable summary.
func (m *Meter) String() string {
	var b strings.Builder
	t := m.Total()
	fmt.Fprintf(&b, "total: %d msgs / %d words (up %d/%d, down %d/%d)",
		t.Msgs, t.Words, m.up.Msgs, m.up.Words, m.down.Msgs, m.down.Words)
	for _, k := range m.Kinds() {
		c := m.byKind[k]
		fmt.Fprintf(&b, "\n  %-12s %8d msgs %10d words", k, c.Msgs, c.Words)
	}
	return b.String()
}
