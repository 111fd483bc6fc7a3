// This file defines the wire protocol of the §2.1 single-tenant plane: a
// coordinator daemon and k site agents speaking a small length-prefixed
// binary protocol over TCP (stdlib net only).
//
// This plane keeps the paper's end-of-round collect: after k "all" signals
// the coordinator requests every site's exact count (TypeSyncReq /
// TypeSyncResp) and broadcasts their sum. Package core/hh does not: its
// rounds broadcast the coordinator's own C.m (docs/architecture.md,
// "Deviations from the paper"), so the two planes' word counts differ.
//
// Unlike the in-process simulator (package core/hh), communication here is
// not instant: "all" signals, sync collections and threshold broadcasts
// race with ongoing arrivals. The protocol tolerates this with epochs:
//
//   - frequency deltas (MsgFreq) are increments and are always applied —
//     each delta is sent exactly once, so C.m_x never double counts;
//   - count signals (MsgAll) carry the site's epoch and are dropped when
//     stale, because a completed sync already folded those arrivals into
//     the exact per-site counts it collected;
//   - thresholds only shrink relative to the true m (S_j.m is a past value
//     of m), so the paper's invariants (2)–(3) hold up to in-flight slack.
//
// The package degrades gracefully when a site connection drops: the
// coordinator keeps the site's last reported state and completes syncs
// without it.
//
// # Pacing
//
// The paper assumes communication is instant relative to arrivals. Over
// real sockets that means the deployment's communication savings
// materialize when the inter-arrival time is at least the coordinator
// round-trip: a site that ingests at loopback line rate can push thousands
// of arrivals into socket buffers before the first threshold broadcast
// returns, and those arrivals are handled with maximally stale state
// (correctness is unaffected — estimates only lag further behind — but
// communication degrades toward forwarding). SiteAgent.Flush is a
// per-connection fence callers can use to bound that staleness when
// ingesting faster than the network.
package remote

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Message types.
const (
	// Site → coordinator.
	TypeHello    = byte(1) // payload: site id
	TypeItem     = byte(2) // bootstrap forward: item
	TypeAll      = byte(3) // count delta: value, epoch
	TypeFreq     = byte(4) // frequency delta: item, value
	TypeSyncResp = byte(5) // exact local count: nj, epoch
	TypeFlush    = byte(6) // flush fence: seq
	// Client → coordinator.
	TypeQueryHH = byte(7) // heavy-hitter query: phi (float64 bits)
	// Coordinator → site.
	TypeNewM     = byte(65) // new global count: m, epoch
	TypeSyncReq  = byte(66) // collect request: epoch
	TypeFlushAck = byte(67) // flush fence echo: seq
	// Coordinator → client.
	TypeHHItem   = byte(68) // one result row: item, est frequency
	TypeQueryEnd = byte(69) // end of results: row count, est total
)

// Msg is one protocol frame: a type and up to three uint64 arguments.
type Msg struct {
	Type    byte
	A, B, C uint64
}

// Words returns the accounted size of the message in protocol words,
// matching the simulator's accounting (type-only messages cost 1).
func (m Msg) Words() int {
	switch m.Type {
	case TypeFreq:
		return 2
	default:
		return 1
	}
}

const frameSize = 1 + 3*8

// WriteMsg writes one frame.
func WriteMsg(w io.Writer, m Msg) error {
	var buf [frameSize]byte
	buf[0] = m.Type
	binary.BigEndian.PutUint64(buf[1:9], m.A)
	binary.BigEndian.PutUint64(buf[9:17], m.B)
	binary.BigEndian.PutUint64(buf[17:25], m.C)
	_, err := w.Write(buf[:])
	return err
}

// ReadMsg reads one frame.
func ReadMsg(r io.Reader) (Msg, error) {
	var buf [frameSize]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return Msg{}, err
	}
	m := Msg{
		Type: buf[0],
		A:    binary.BigEndian.Uint64(buf[1:9]),
		B:    binary.BigEndian.Uint64(buf[9:17]),
		C:    binary.BigEndian.Uint64(buf[17:25]),
	}
	if !validType(m.Type) {
		return Msg{}, fmt.Errorf("remote: unknown message type %d", m.Type)
	}
	return m, nil
}

func validType(t byte) bool {
	switch t {
	case TypeHello, TypeItem, TypeAll, TypeFreq, TypeSyncResp, TypeFlush,
		TypeQueryHH, TypeNewM, TypeSyncReq, TypeFlushAck, TypeHHItem,
		TypeQueryEnd:
		return true
	}
	return false
}
