package hh

import (
	"bytes"
	"encoding/binary"
	"testing"

	"disttrack/internal/ckpt"
)

// FuzzRestore drives the checkpoint restore path with arbitrary bytes, both
// as a raw frame (exercising the magic/length/CRC envelope) and re-framed
// as a checksummed payload (driving the engine and policy decoders
// directly, past the CRC a fuzzer cannot forge). Garbage must error, never
// panic.
func FuzzRestore(f *testing.F) {
	fresh := func(tb testing.TB) *Tracker {
		tr, err := New(Config{K: 3, Eps: 0.1})
		if err != nil {
			tb.Fatal(err)
		}
		return tr
	}
	tr := fresh(f)
	for i := 0; i < 2000; i++ {
		tr.Feed(i%3, uint64(i%13))
	}
	var buf bytes.Buffer
	if err := tr.Checkpoint(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(append([]byte(nil), valid...))
	f.Add(append([]byte(nil), valid[:len(valid)-9]...))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)
	f.Add(append([]byte(nil), valid[10:len(valid)-4]...)) // bare payload
	f.Add([]byte{})
	// Refused: the sites' S.m differ.
	f.Add(splitBroadcastCheckpoint(f, func(p *policy) { p.sites[1].m++ }))
	for _, b := range []byte{storeMisraGries, 3} { // refused store bytes
		_, _, payload := storeBytePayload(f, tr, b)
		f.Add(payload)
	}

	magic := binary.LittleEndian.Uint32(valid[0:4])
	version := binary.LittleEndian.Uint16(valid[4:6])

	f.Fuzz(func(t *testing.T, data []byte) {
		_ = fresh(t).Restore(bytes.NewReader(data))
		var fb bytes.Buffer
		if err := ckpt.WriteFrame(&fb, magic, version, data); err != nil {
			t.Fatal(err)
		}
		_ = fresh(t).Restore(&fb)
	})
}
