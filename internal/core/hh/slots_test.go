package hh

import (
	"bytes"
	"encoding/binary"
	"testing"

	"disttrack/internal/ckpt"
)

// fibInverse is fib's multiplicative inverse mod 2^64 (Newton's iteration
// doubles the correct low bits each step; 3 → 96 in five steps).
func fibInverse() uint64 {
	inv := uint64(fib)
	for i := 0; i < 5; i++ {
		inv *= 2 - fib*inv
	}
	return inv
}

// collidingKey returns the i-th of 256 distinct keys that share their home
// slot in every table with the given seed and at most 2^56 slots: their
// hashes differ only in the low byte.
func collidingKey(seed uint64, i byte) uint64 {
	return (fibInverse() * (0x5a<<56 | uint64(i))) ^ seed
}

func TestCollidingKeysCollide(t *testing.T) {
	if fib*fibInverse() != 1 {
		t.Fatal("fibInverse is not fib's inverse")
	}
	tab := slotTable{seed: 12345}
	for tab.limit < 1<<12 {
		tab.grow()
	}
	home := tab.home(collidingKey(tab.seed, 0))
	for i := 1; i < 256; i++ {
		if x := collidingKey(tab.seed, byte(i)); x == 0 || tab.home(x) != home {
			t.Fatalf("key %d: %#x homes at %d, want %d", i, x, tab.home(x), home)
		}
	}
}

// FuzzSlotTable runs a byte script of table operations against a map
// reference: get/inc, report (dx → 0), find, bursts of fresh keys that grow
// the table across several doublings, full walks, and the checkpoint
// encoding, over keys drawn from item 0, small keys, keys that all share one
// home slot, and arbitrary 64-bit keys. A script is the table's 8-byte hash
// seed followed by operations: an op byte (mod 6: inc, report, find, burst,
// walk, encode), then its key byte (mod 4: item 0, small key, colliding key,
// or 8 key bytes follow) or, for a burst, its length / 4.
func FuzzSlotTable(f *testing.F) {
	seeded := func(seed uint64, ops ...byte) []byte {
		return append(binary.LittleEndian.AppendUint64(nil, seed), ops...)
	}
	f.Add([]byte{})
	f.Add(seeded(0, 0, 0, 0, 1, 0, 5, 0, 2, 0, 6, 0, 10, 1, 6, 2, 0, 2, 6, 4, 5))
	f.Add(seeded(0x123456789abcdef0, 0, 2, 0, 6, 0, 10, 1, 6, 3, 40, 4, 5, 2, 6, 0, 0, 4))
	f.Add(seeded(7, bytes.Repeat([]byte{0, 2, 0, 6, 0, 10, 1, 2, 2, 6, 0, 0, 4}, 40)...))
	f.Add(seeded(0, append(bytes.Repeat([]byte{3, 200}, 8),
		4, 5, 0, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		2, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 5)...))

	type ref struct{ local, dx int64 }
	f.Fuzz(func(t *testing.T, script []byte) {
		var seed uint64
		if len(script) >= 8 {
			seed = binary.LittleEndian.Uint64(script)
			script = script[8:]
		}
		tab := slotTable{seed: seed}
		want := map[uint64]*ref{}
		pos := 0
		next := func() byte {
			if pos >= len(script) {
				return 0
			}
			pos++
			return script[pos-1]
		}
		key := func() uint64 {
			b := next()
			switch b % 4 {
			case 0:
				return 0
			case 1:
				return uint64(b>>2) + 1
			case 2:
				return collidingKey(seed, b>>2)
			default:
				var x uint64
				for i := 0; i < 8; i++ {
					x = x<<8 | uint64(next())
				}
				return x
			}
		}
		inc := func(x uint64) {
			s := tab.get(x)
			s.local++
			s.dx++
			r := want[x]
			if r == nil {
				r = &ref{}
				want[x] = r
			}
			r.local++
			r.dx++
		}
		checkAll := func() {
			seen := 0
			for s := range tab.all {
				r := want[s.key]
				if r == nil || r.local != s.local || r.dx != s.dx {
					t.Fatalf("walk: key %#x holds (%d, %d), reference %+v", s.key, s.local, s.dx, r)
				}
				seen++
			}
			if seen != len(want) {
				t.Fatalf("walk saw %d slots, reference has %d keys", seen, len(want))
			}
		}
		for burst := uint64(1); pos < len(script); {
			switch next() % 6 {
			case 0: // get/inc
				inc(key())
			case 1: // report
				x := key()
				if s := tab.find(x); s != nil {
					s.dx = 0
				}
				if r := want[x]; r != nil {
					r.dx = 0
				}
			case 2: // find
				x := key()
				s, r := tab.find(x), want[x]
				if (s == nil) != (r == nil) || s != nil && (s.key != x || s.local != r.local || s.dx != r.dx) {
					t.Fatalf("find(%#x) = %+v, reference %+v", x, s, r)
				}
			case 3: // a burst of fresh keys: grows across doublings
				for n := 4 * int(next()); n > 0; n-- {
					inc(burst<<32 | uint64(n))
				}
				burst++
			case 4: // walk
				checkAll()
			case 5: // encode, as the checkpoint does
				m := map[uint64]int64{}
				d := map[uint64]int64{}
				space := 0
				for x, r := range want {
					if r.local != 0 {
						m[x] = r.local
						space++
					}
					if r.dx != 0 {
						d[x] = r.dx
						space++
					}
				}
				var got, exp ckpt.Encoder
				slots := tab.sorted()
				encodeColumn(&got, slots, func(s slot) int64 { return s.local })
				encodeColumn(&got, slots, func(s slot) int64 { return s.dx })
				exp.MapU64I64(m)
				exp.MapU64I64(d)
				if !bytes.Equal(got.Bytes(), exp.Bytes()) {
					t.Fatal("encoded slot table differs from the reference maps' encoding")
				}
				if tab.space() != space {
					t.Fatalf("space %d, reference %d", tab.space(), space)
				}
			}
		}
		checkAll()
		if n := len(tab.slots); n != 0 && (n&(n-1) != 0 || tab.used > tab.limit) {
			t.Fatalf("capacity %d holds %d slots (limit %d)", n, tab.used, tab.limit)
		}
	})
}
