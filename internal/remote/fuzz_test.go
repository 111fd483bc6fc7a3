package remote

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"disttrack/internal/runtime"
)

// FuzzReadTFrame ensures arbitrary bytes never panic the multi-tenant frame
// decoder (variable-length payloads make this the riskier parser), that a
// failed decode keeps no pooled slice, and that whatever decodes is the one
// encoding of its frame: it re-encodes to the identical bytes, of the length
// the decoder reported, and those bytes decode to the same frame again.
func FuzzReadTFrame(f *testing.F) {
	for _, fr := range []TFrame{
		{Type: TypeNodeHello, Kind: ProtoVersion, Tenant: "edge-0"},
		{Type: TypeBatch, Seq: 7, Kind: TKindQuantile, Site: 2, Tenant: "t",
			Values: []uint64{0, 1, 99, 127, 128, 1<<20 - 1, 1<<40 - 1, 1 << 63, math.MaxUint64}},
		{Type: TypeBatchAck, Seq: 7},
		{Type: TypeNetFlush, Seq: 1},
		{Type: TypeBatchReject, Seq: 3, Tenant: "tenant \"x\" not found"},
	} {
		f.Add(encode(f, fr))
	}
	f.Add([]byte{TypeBatch, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		out := runtime.BatchesOut()
		fr, n, err := readOne(data)
		if err != nil {
			if fr.Values != nil || runtime.BatchesOut() != out {
				t.Fatalf("failed decode kept a pooled slice (%v)", err)
			}
			return
		}
		enc, err := AppendTFrame(nil, fr)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		if n != len(enc) || !bytes.Equal(enc, data[:n]) {
			t.Fatalf("decoder reported %d bytes; re-encode mismatch: %x vs %x", n, enc, data[:min(n, len(data))])
		}
		back, m, err := readOne(enc)
		if err != nil || m != n || back.Type != fr.Type || back.Seq != fr.Seq || back.Kind != fr.Kind ||
			back.Site != fr.Site || back.Tenant != fr.Tenant || !slices.Equal(back.Values, fr.Values) {
			t.Fatalf("Read(Write(f)) = %+v (%d bytes, %v), want %+v (%d bytes)", back, m, err, fr, n)
		}
		runtime.PutBatch(fr.Values)
		runtime.PutBatch(back.Values)
	})
}
