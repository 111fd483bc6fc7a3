package wire

import "maps"

// MeterState is an exported deep copy of a Meter's counters, the unit of
// meter serialization for engine checkpoints.
type MeterState struct {
	Up, Down Cost
	KindsOff bool
	ByKind   map[string]Cost
	BySite   []Cost
	ByTenant map[string]Cost
}

// State returns a deep copy of the meter's counters.
func (m *Meter) State() MeterState {
	return MeterState{
		Up:       m.up,
		Down:     m.down,
		KindsOff: m.kindsOff,
		ByKind:   maps.Clone(m.byKind),
		BySite:   append([]Cost(nil), m.bySite...),
		ByTenant: maps.Clone(m.byTenant),
	}
}

// SetState replaces the meter's counters with a deep copy of st. Like every
// other Meter method it is not safe for concurrent use; engines call it
// under their slow-path locks.
func (m *Meter) SetState(st MeterState) {
	m.up = st.Up
	m.down = st.Down
	m.kindsOff = st.KindsOff
	m.byKind = maps.Clone(st.ByKind)
	m.bySite = append([]Cost(nil), st.BySite...)
	m.byTenant = maps.Clone(st.ByTenant)
}
