package remote

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"disttrack/internal/runtime"
	"disttrack/internal/wire"
)

// Multi-tenant transport frames (site node ↔ coordinator node).
//
// The transport carries batched delta frames for many tenants over one
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
//   - TypeNodeHello: Tenant = node name, Kind = ProtoVersion, Seq = the
//     last membership epoch the node saw.
//   - TypeNodeWelcome: Seq = applied cursor, Kind = ProtoVersion, Site =
//     membership epoch.
//   - TypeBatchAck, TypeNetFlush, TypeNetFlushAck: Seq.
//   - TypeBatch: Seq, Tenant, Site, Kind, Values.
//   - TypeBatchReject: Seq of the refused frame (0: the hello), Tenant =
//     reason.
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

// ProtoVersion is the transport's wire-format version, carried in the Kind
// byte of TypeNodeHello and TypeNodeWelcome. Both ends refuse a peer that
// names another version at the handshake — the control frames that carry the
// refusal have the same bytes in every version, so the reason arrives intact
// — instead of mis-decoding its batch frames. Version 0 (the byte was unused)
// shipped values as fixed 8-byte words; version 1 ships them as varints.
const ProtoVersion = byte(1)

// Frame size limits. MaxTenantLen caps a tenant name in bytes: the service
// refuses longer names at tenant creation and in a site node's records.
// MaxBatchLen caps the values in one batch frame, so a corrupt length prefix
// cannot make the reader allocate unboundedly; a site node refuses a batch
// size above it.
const (
	MaxTenantLen = 1 << 10
	MaxBatchLen  = 1 << 20
	tframeHeader = 1 + 4             // type + payload length
	tframeFixed  = 8 + 1 + 4 + 2 + 4 // seq + kind + site + tenant len + count
	maxTFramePay = tframeFixed + MaxTenantLen + binary.MaxVarintLen64*MaxBatchLen
)

// Words returns the frame's accounted size in protocol words, in the same
// currency as Msg.Words: one word per value plus a three-word header
// (sequencing, addressing, count). It does not depend on the encoding.
func (f TFrame) Words() int { return 3 + len(f.Values) }

// AppendTFrame appends one encoded frame to dst; the frame's on-the-wire
// size — the currency of the transport's byte counters — is the growth of
// dst. Layout, integers big-endian:
//
//	type u8 | payload length u32 | seq u64 | kind u8 | site u32 |
//	tenant length u16 | value count u32 | tenant bytes | values
//
// with each value a canonical unsigned varint (wire.AppendValues), so a
// control frame is 24 bytes and a batch frame costs 24 + len(tenant) plus
// one to ten bytes per value. On error dst is returned unchanged.
func AppendTFrame(dst []byte, f TFrame) ([]byte, error) {
	if len(f.Tenant) > MaxTenantLen {
		return dst, fmt.Errorf("remote: tenant name %d bytes exceeds %d", len(f.Tenant), MaxTenantLen)
	}
	if len(f.Values) > MaxBatchLen {
		return dst, fmt.Errorf("remote: batch of %d values exceeds %d", len(f.Values), MaxBatchLen)
	}
	if !validTType(f.Type) {
		return dst, fmt.Errorf("remote: unknown tframe type %d", f.Type)
	}
	start := len(dst)
	dst = append(dst, f.Type, 0, 0, 0, 0) // payload length patched below
	dst = binary.BigEndian.AppendUint64(dst, f.Seq)
	dst = append(dst, f.Kind)
	dst = binary.BigEndian.AppendUint32(dst, f.Site)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Tenant)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Values)))
	dst = append(dst, f.Tenant...)
	dst = wire.AppendValues(dst, f.Values)
	binary.BigEndian.PutUint32(dst[start+1:], uint32(len(dst)-start-tframeHeader))
	return dst, nil
}

// tframeReadBuf is the read buffer of a TFrameReader: large enough that a
// burst of full site-node frames (or a window's worth of acks) arrives in
// one read syscall. It is also the decode window for values, so it must hold
// at least one maximal varint.
const tframeReadBuf = 32 << 10

// maxInternedTenants bounds a TFrameReader's tenant-name table, so a peer
// inventing names cannot grow it without limit.
const maxInternedTenants = 1 << 12

// TFrameReader decodes frames from one connection through a read buffer:
// many small frames cost one read syscall, and values are decoded straight
// from the buffer into their destination slice, with no per-frame staging
// copy. Not safe for concurrent use.
type TFrameReader struct {
	br      *bufio.Reader
	tenants map[string]string // batch-frame tenant names, one string each
}

// NewTFrameReader returns a frame reader over r. It reads ahead, so r must
// not be read by anyone else afterwards.
func NewTFrameReader(r io.Reader) *TFrameReader {
	return &TFrameReader{br: bufio.NewReaderSize(r, tframeReadBuf)}
}

// Buffered returns the bytes already read from the connection and not yet
// decoded: zero means the next Read will wait for the peer.
func (d *TFrameReader) Buffered() int { return d.br.Buffered() }

// Read decodes one frame and returns it with its on-the-wire size, rejecting
// malformed or oversized input without unbounded allocation: the value count
// is checked against the payload bytes actually declared (a value is at
// least one byte) before any slice is drawn, so a frame never costs more
// than 8 × min(count, payload) bytes. Batch value slices come from the
// shared runtime batch pool, so a decoded frame can flow through the ingest
// pipeline (ingester → cluster → site goroutine) and be recycled at the end
// without a per-frame allocation; whoever consumes the frame takes
// ownership of f.Values and must hand it on or return it with
// runtime.PutBatch. A frame that fails to decode returns its slice itself.
func (d *TFrameReader) Read() (TFrame, int, error) {
	hdr, err := d.br.Peek(tframeHeader + tframeFixed)
	if err != nil {
		if len(hdr) > 0 {
			err = unexpectedEOF(err)
		}
		return TFrame{}, 0, err
	}
	if !validTType(hdr[0]) {
		return TFrame{}, 0, fmt.Errorf("remote: unknown tframe type %d", hdr[0])
	}
	payload := int(binary.BigEndian.Uint32(hdr[1:5]))
	if payload < tframeFixed || payload > maxTFramePay {
		return TFrame{}, 0, fmt.Errorf("remote: tframe payload %d out of range [%d,%d]",
			payload, tframeFixed, maxTFramePay)
	}
	p := hdr[tframeHeader:]
	f := TFrame{
		Type: hdr[0],
		Seq:  binary.BigEndian.Uint64(p[0:8]),
		Kind: p[8],
		Site: binary.BigEndian.Uint32(p[9:13]),
	}
	tlen := int(binary.BigEndian.Uint16(p[13:15]))
	count := int(binary.BigEndian.Uint32(p[15:19]))
	vbytes := payload - tframeFixed - tlen // what the payload leaves for values
	if tlen > MaxTenantLen || count > MaxBatchLen || count > vbytes ||
		vbytes > binary.MaxVarintLen64*count {
		return TFrame{}, 0, fmt.Errorf("remote: tframe length mismatch (tenant %d, count %d, payload %d)",
			tlen, count, payload)
	}
	d.br.Discard(len(hdr)) // cannot fail: the bytes are buffered
	if tlen > 0 {
		name, err := d.br.Peek(tlen) // tlen <= MaxTenantLen < the buffer size
		if err != nil {
			return TFrame{}, 0, unexpectedEOF(err)
		}
		f.Tenant = d.tenantName(f.Type, name)
		d.br.Discard(tlen)
	}
	if count > 0 {
		f.Values = runtime.GetBatch(count)[:count]
		if err := d.readValues(f.Values, vbytes); err != nil {
			runtime.PutBatch(f.Values)
			return TFrame{}, 0, err
		}
	}
	return f, tframeHeader + payload, nil
}

// readValues fills vs from exactly the next n buffered-or-incoming bytes,
// decoding window by window when they exceed the read buffer.
func (d *TFrameReader) readValues(vs []uint64, n int) error {
	for done := 0; ; {
		win, err := d.br.Peek(min(n, d.br.Size()))
		if err != nil {
			return unexpectedEOF(err)
		}
		nv, nb, err := wire.ReadValues(vs[done:], win)
		if err != nil {
			return fmt.Errorf("remote: tframe values: %w", err)
		}
		d.br.Discard(nb)
		done += nv
		n -= nb
		switch {
		case done == len(vs) && n == 0:
			return nil
		case done == len(vs):
			return fmt.Errorf("remote: tframe has %d bytes after its last value", n)
		case len(win) == n+nb:
			// The window held everything the frame had left.
			return fmt.Errorf("remote: tframe values end after %d of %d", done, len(vs))
		}
	}
}

// tenantName returns name as a string, reusing one copy per distinct batch
// tenant so a stream of batch frames does not allocate a name per frame.
// Other types' text (node names, rejection reasons) is rare and unbounded in
// variety, and is not kept.
func (d *TFrameReader) tenantName(typ byte, name []byte) string {
	if typ != TypeBatch {
		return string(name)
	}
	if s, ok := d.tenants[string(name)]; ok { // no allocation: map lookup by converted bytes
		return s
	}
	if d.tenants == nil || len(d.tenants) >= maxInternedTenants {
		d.tenants = make(map[string]string)
	}
	s := string(name)
	d.tenants[s] = s
	return s
}

// unexpectedEOF maps an end of stream inside a frame to io.ErrUnexpectedEOF;
// a bare io.EOF is reserved for a stream that ends between frames.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func validTType(t byte) bool {
	switch t {
	case TypeNodeHello, TypeNodeWelcome, TypeBatch, TypeBatchAck,
		TypeNetFlush, TypeNetFlushAck, TypeBatchReject, TypeNodeGoodbye:
		return true
	}
	return false
}
