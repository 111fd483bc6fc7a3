package allq

import (
	"bytes"
	"encoding/binary"
	"testing"

	"disttrack/internal/ckpt"
)

// FuzzRestore is the allq counterpart of hh's FuzzRestore, seeded with the
// golden checkpoint: arbitrary bytes through the checkpoint restore path, raw
// and re-framed with a valid checksum so the policy decoder itself sees the
// garbage. Must error, never panic.
func FuzzRestore(f *testing.F) {
	fresh := func(tb testing.TB) *Tracker {
		tr, err := New(goldenCfg)
		if err != nil {
			tb.Fatal(err)
		}
		return tr
	}
	valid := readGolden(f)
	f.Add(append([]byte(nil), valid...))
	f.Add(append([]byte(nil), valid[:len(valid)/2]...))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-5] ^= 0x01
	f.Add(flipped)
	f.Add(append([]byte(nil), valid[10:len(valid)-4]...)) // bare payload
	f.Add([]byte{})

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
