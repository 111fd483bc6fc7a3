package service

import (
	"slices"

	"disttrack/internal/runtime"
)

// pooledGroupLen is the group size from which a group's value slice comes
// from the runtime batch pool. The pool hands out 256-value slices and takes
// back nothing smaller than this, so drawing from it for a smaller group
// would pin 2 KiB through the site channel to carry a handful of values;
// smaller groups share one exact-size allocation per call.
const pooledGroupLen = runtime.MinPooledCap

// grouper sorts the records of one ingest call into per-(tenant, site) value
// groups by counting: the ingester's pass over the records assigns each
// accepted record a slot and counts it (add), then emit sizes every group's
// slice exactly and copies the values in. Each live *Tenant the call resolves
// owns a row of per-site slots.
//
// The caller keeps the row of the tenant it is looking at, so the index is
// consulted once per run of records naming the same tenant, not once per
// record. Nothing is allocated per tenant or per group: the index, the row list,
// the slot array and the per-record slot numbers are reused across calls,
// groups of pooledGroupLen values or more use pooled slices that their
// consumer recycles, and all smaller groups of a call are carved from one
// allocation, which the garbage collector reclaims once the last is consumed.
type grouper struct {
	index map[*Tenant]int32 // tenant → position in rows
	rows  []groupRow
	slots []groupSlot // every row's slots, back to back
	dest  []int32     // per record of the call: its slot, or -1 if not accepted
}

type groupRow struct {
	t          *Tenant
	off, width int32 // the row is slots[off : off+width]
}

type groupSlot struct {
	n      int      // accepted records counted into the slot
	values []uint64 // set by emit
}

// begin starts a call of n records, none accepted yet.
func (g *grouper) begin(n int) {
	g.dest = slices.Grow(g.dest[:0], n)[:n]
	for i := range g.dest {
		g.dest[i] = -1
	}
}

// open returns t's row as its first slot's number and its width, creating
// the row width slots wide the first time the call sees t (later opens
// return the original width, so a tenant reconfigured mid-call is validated
// consistently).
func (g *grouper) open(t *Tenant, width int) (first int32, w int) {
	i, ok := g.index[t]
	if !ok {
		if g.index == nil {
			g.index = make(map[*Tenant]int32)
		}
		i = int32(len(g.rows))
		g.index[t] = i
		g.rows = append(g.rows, groupRow{t: t, off: int32(len(g.slots)), width: int32(width)})
		// Slots past len are zero already: emit clears what it used and
		// growing zero-fills what it adds.
		g.slots = slices.Grow(g.slots, width)
		g.slots = g.slots[:len(g.slots)+width]
	}
	r := g.rows[i]
	return r.off, int(r.width)
}

// add accepts record i of the call into slot.
func (g *grouper) add(i int, slot int32) {
	g.dest[i] = slot
	g.slots[slot].n++
}

// emit builds the groups from the accepted records and calls fn for each:
// rows in the order the call first saw their tenants, each row's groups together
// in slot order. Ownership of values passes to fn. It leaves the grouper
// empty, ready for the next begin.
func (g *grouper) emit(recs []Record, fn func(t *Tenant, site int, values []uint64)) {
	small := 0
	for i := range g.slots {
		if s := &g.slots[i]; s.n >= pooledGroupLen {
			s.values = runtime.GetBatch(s.n)
		} else {
			small += s.n
		}
	}
	if small > 0 {
		chunk := make([]uint64, small)
		for i := range g.slots {
			if s := &g.slots[i]; s.n > 0 && s.n < pooledGroupLen {
				// Capacity-limited: the groups cannot grow into each other,
				// and the batch pool (which would otherwise keep the whole
				// chunk alive through one group) does not take them back.
				s.values, chunk = chunk[:0:s.n], chunk[s.n:]
			}
		}
	}
	for i, d := range g.dest {
		if d >= 0 {
			s := &g.slots[d]
			s.values = append(s.values, recs[i].Value)
		}
	}
	for _, r := range g.rows {
		for j, s := range g.slots[r.off : r.off+r.width] {
			if s.n > 0 {
				fn(r.t, j, s.values)
			}
		}
	}
	clear(g.index)
	clear(g.rows)
	g.rows = g.rows[:0]
	clear(g.slots)
	g.slots = g.slots[:0]
}
