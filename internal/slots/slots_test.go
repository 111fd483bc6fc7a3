package slots

import (
	"bytes"
	"encoding/binary"
	"maps"
	"slices"
	"testing"
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
	tab := Table[uint32]{seed: 12345}
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

// counts is the hh exact-mode value: a local frequency and its unreported
// increment.
type counts struct{ local, dx int64 }

// valueOps says what an arrival and a reset do to one value type.
type valueOps[V comparable] struct {
	arrive func(*V)
	reset  func(*V)
}

var (
	// hh: an arrival counts in both; a report sets dx to 0.
	countsOps = valueOps[counts]{
		arrive: func(c *counts) { c.local++; c.dx++ },
		reset:  func(c *counts) { c.dx = 0 },
	}
	// Perturbation counters: an arrival takes the next occurrence number; a
	// reset stands for a restore writing a counter of 0.
	seqOps = valueOps[uint32]{
		arrive: func(s *uint32) { *s++ },
		reset:  func(s *uint32) { *s = 0 },
	}
)

// FuzzSlotTable runs a byte script of table operations against a map
// reference, once for each value type the repository stores (hh's counts and
// the perturbation counter): arrive, reset, find, bursts of fresh keys that
// grow the table across several doublings, full walks, and the sorted dump
// the checkpoint encoders walk, over keys drawn from key 0, small keys, keys
// that all share one home slot, and arbitrary 64-bit keys. A script is the
// table's 8-byte hash seed followed by operations: an op byte (mod 6:
// arrive, reset, find, burst, walk, sorted), then its key byte (mod 4: key
// 0, small key, colliding key, or 8 key bytes follow) or, for a burst, its
// length / 4.
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

	f.Fuzz(func(t *testing.T, script []byte) {
		var seed uint64
		if len(script) >= 8 {
			seed = binary.LittleEndian.Uint64(script)
			script = script[8:]
		}
		runScript(t, seed, script, countsOps)
		runScript(t, seed, script, seqOps)
	})
}

func runScript[V comparable](t *testing.T, seed uint64, script []byte, ops valueOps[V]) {
	tab := Table[V]{seed: seed}
	want := map[uint64]V{}
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
	arrive := func(x uint64) {
		ops.arrive(&tab.Get(x).Val)
		v := want[x]
		ops.arrive(&v)
		want[x] = v
	}
	checkAll := func() {
		seen := 0
		for s := range tab.All {
			if v, ok := want[s.Key]; !ok || v != s.Val {
				t.Fatalf("walk: key %#x holds %+v, reference %+v (present %v)", s.Key, s.Val, v, ok)
			}
			seen++
		}
		if seen != len(want) || tab.Len() != len(want) {
			t.Fatalf("walk saw %d slots and Len is %d, reference has %d keys", seen, tab.Len(), len(want))
		}
	}
	for burst := uint64(1); pos < len(script); {
		switch next() % 6 {
		case 0:
			arrive(key())
		case 1:
			x := key()
			if s := tab.Find(x); s != nil {
				ops.reset(&s.Val)
			}
			if v, ok := want[x]; ok {
				ops.reset(&v)
				want[x] = v
			}
		case 2:
			x := key()
			s := tab.Find(x)
			v, ok := want[x]
			if (s != nil) != ok || s != nil && (s.Key != x || s.Val != v) {
				t.Fatalf("Find(%#x) = %+v, reference %+v (present %v)", x, s, v, ok)
			}
		case 3: // a burst of fresh keys: grows across doublings
			for n := 4 * int(next()); n > 0; n-- {
				arrive(burst<<32 | uint64(n))
			}
			burst++
		case 4:
			checkAll()
		case 5:
			got := tab.Sorted()
			keys := slices.Sorted(maps.Keys(want))
			if len(got) != len(keys) {
				t.Fatalf("Sorted returned %d slots, reference has %d keys", len(got), len(keys))
			}
			for i, x := range keys {
				if got[i].Key != x || got[i].Val != want[x] {
					t.Fatalf("Sorted[%d] = %+v, want key %#x holding %+v", i, got[i], x, want[x])
				}
			}
		}
	}
	checkAll()
	if n := len(tab.slots); n != 0 && (n&(n-1) != 0 || tab.used > tab.limit) {
		t.Fatalf("capacity %d holds %d slots (limit %d)", n, tab.used, tab.limit)
	}
}
