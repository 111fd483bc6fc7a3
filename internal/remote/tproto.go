package remote

import (
	"encoding/binary"
	"fmt"
	"io"

	"disttrack/internal/runtime"
)

// Multi-tenant transport frames (site node ↔ coordinator node).
//
// The §2.1 frames above are fixed-size and single-tenant: one coordinator,
// one protocol instance, one item per message. The multi-tenant transport
// instead carries batched delta frames for many tenants over one
// connection: each frame names the tenant, the site id within that tenant's
// protocol instance, the tracker kind, and a batch of values. Frames are
// variable-length and sequenced per connection so the receiver can
// acknowledge them, the sender can bound its in-flight window
// (backpressure), and a reconnecting sender can resync by replaying
// unacknowledged frames without double counting.
const (
	// Site node → coordinator.
	TypeNodeHello = byte(0x10) // Tenant field carries the node name
	TypeBatch     = byte(0x12) // one per-(tenant,site) value batch
	TypeNetFlush  = byte(0x14) // request a full ingest-pipeline barrier
	// Coordinator → site node.
	TypeNodeWelcome = byte(0x11) // Seq = highest frame seq already applied
	TypeBatchAck    = byte(0x13) // Seq = highest contiguous frame applied
	TypeNetFlushAck = byte(0x15) // echo of a TypeNetFlush Seq, post-barrier
	TypeBatchReject = byte(0x16) // Seq of a frame refused (Tenant = reason)
	TypeNodeGoodbye = byte(0x17) // node → coordinator: graceful close, all frames acked
)

// Tracker kinds carried in batch frames. The coordinator resolves the
// authoritative kind from its tenant registry; the byte in the frame is a
// sender-side hint used for cost attribution and diagnostics.
const (
	TKindHH       = byte(0)
	TKindQuantile = byte(1)
	TKindAllQ     = byte(2)
	TKindUnknown  = byte(255)
)

// TFrame is one multi-tenant transport frame. Field use by type:
//
//   - TypeNodeHello: Tenant = node name.
//   - TypeNodeWelcome, TypeBatchAck, TypeNetFlush, TypeNetFlushAck: Seq.
//   - TypeBatch: Seq, Tenant, Site, Kind, Values.
//   - TypeBatchReject: Seq of the refused frame, Tenant = reason.
//
// Unused fields are zero.
type TFrame struct {
	Type   byte
	Seq    uint64
	Kind   byte
	Site   uint32
	Tenant string
	Values []uint64
}

// Frame size limits: a tenant name is bounded by the service's validation
// (well under this), and a batch is bounded so a corrupt length prefix
// cannot make the reader allocate unboundedly.
const (
	maxTenantLen = 1 << 10
	maxBatchLen  = 1 << 20
	tframeFixed  = 8 + 1 + 4 + 2 + 4 // seq + kind + site + tenant len + count
	maxTFramePay = tframeFixed + maxTenantLen + 8*maxBatchLen
)

// Words returns the frame's accounted size in protocol words, in the same
// currency as Msg.Words: one word per value plus a three-word header
// (sequencing, addressing, count).
func (f TFrame) Words() int { return 3 + len(f.Values) }

// EncodedSize returns the frame's exact on-the-wire size in bytes (type
// byte, length prefix and payload) — the currency of the transport-level
// byte counters, as opposed to Words, the paper's model currency.
func (f TFrame) EncodedSize() int {
	return 1 + 4 + tframeFixed + len(f.Tenant) + 8*len(f.Values)
}

// WriteTFrame writes one multi-tenant frame: a type byte, a 32-bit payload
// length, and the payload.
func WriteTFrame(w io.Writer, f TFrame) error {
	if len(f.Tenant) > maxTenantLen {
		return fmt.Errorf("remote: tenant name %d bytes exceeds %d", len(f.Tenant), maxTenantLen)
	}
	if len(f.Values) > maxBatchLen {
		return fmt.Errorf("remote: batch of %d values exceeds %d", len(f.Values), maxBatchLen)
	}
	if !validTType(f.Type) {
		return fmt.Errorf("remote: unknown tframe type %d", f.Type)
	}
	payload := tframeFixed + len(f.Tenant) + 8*len(f.Values)
	buf := make([]byte, 1+4+payload)
	buf[0] = f.Type
	binary.BigEndian.PutUint32(buf[1:5], uint32(payload))
	p := buf[5:]
	binary.BigEndian.PutUint64(p[0:8], f.Seq)
	p[8] = f.Kind
	binary.BigEndian.PutUint32(p[9:13], f.Site)
	binary.BigEndian.PutUint16(p[13:15], uint16(len(f.Tenant)))
	binary.BigEndian.PutUint32(p[15:19], uint32(len(f.Values)))
	copy(p[19:], f.Tenant)
	vals := p[19+len(f.Tenant):]
	for i, v := range f.Values {
		binary.BigEndian.PutUint64(vals[8*i:], v)
	}
	_, err := w.Write(buf)
	return err
}

// ReadTFrame reads one multi-tenant frame, rejecting malformed or oversized
// input without unbounded allocation. Batch value slices are drawn from the
// shared runtime batch pool, so a decoded frame can flow through the ingest
// pipeline (ingester → cluster → site goroutine) and be recycled at the end
// without a per-frame allocation; whoever consumes the frame takes
// ownership of f.Values and must hand it on or return it with
// runtime.PutBatch.
func ReadTFrame(r io.Reader) (TFrame, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return TFrame{}, err
	}
	if !validTType(hdr[0]) {
		return TFrame{}, fmt.Errorf("remote: unknown tframe type %d", hdr[0])
	}
	payload := int(binary.BigEndian.Uint32(hdr[1:5]))
	if payload < tframeFixed || payload > maxTFramePay {
		return TFrame{}, fmt.Errorf("remote: tframe payload %d out of range [%d,%d]",
			payload, tframeFixed, maxTFramePay)
	}
	p := make([]byte, payload)
	if _, err := io.ReadFull(r, p); err != nil {
		return TFrame{}, err
	}
	f := TFrame{
		Type: hdr[0],
		Seq:  binary.BigEndian.Uint64(p[0:8]),
		Kind: p[8],
		Site: binary.BigEndian.Uint32(p[9:13]),
	}
	tlen := int(binary.BigEndian.Uint16(p[13:15]))
	count := int(binary.BigEndian.Uint32(p[15:19]))
	if tlen > maxTenantLen || count > maxBatchLen || tframeFixed+tlen+8*count != payload {
		return TFrame{}, fmt.Errorf("remote: tframe length mismatch (tenant %d, count %d, payload %d)",
			tlen, count, payload)
	}
	f.Tenant = string(p[19 : 19+tlen])
	if count > 0 {
		f.Values = runtime.GetBatch(count)[:count]
		vals := p[19+tlen:]
		for i := range f.Values {
			f.Values[i] = binary.BigEndian.Uint64(vals[8*i:])
		}
	}
	return f, nil
}

func validTType(t byte) bool {
	switch t {
	case TypeNodeHello, TypeNodeWelcome, TypeBatch, TypeBatchAck,
		TypeNetFlush, TypeNetFlushAck, TypeBatchReject, TypeNodeGoodbye:
		return true
	}
	return false
}
