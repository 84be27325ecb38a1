package storage

import (
	"fmt"
	"math"
)

// KeyTable assigns dense ids 0, 1, 2, … to int64 keys in first-appearance
// order: the key → id structure behind HashIndex's sparse form and algebra's
// group kernels. It has two forms, chosen by Reset from the keys' observed
// minimum, maximum and count alone: a direct table addressed by v − min when
// the range is small against the count, and linear probing over a
// power-of-two slot array otherwise. A slot holds id+1 (0 = empty) and a probe
// compares against keys[id], so growing re-inserts from keys and a slot
// stores nothing else. The zero value is ready for Reset, and Reset keeps the
// arrays' capacity, so a pooled table stops allocating once it is warm.
type KeyTable struct {
	keys  []int64 // id → key
	slots []int32
	min   int64  // direct form: slot of v is v − min
	span  uint64 // direct form: largest valid v − min
	shift uint   // probing form: 64 − log2(len(slots)); 0 marks the direct form
}

const (
	// directSlotsPerKey bounds the direct form's table at this many slots
	// per key: clearing 4-byte slots must stay cheaper than scanning the
	// 8-byte keys they index, or a per-partition group-by would pay more to
	// reset its table than to read its partition.
	directSlotsPerKey = 4
	// probeMinBits is the probing form's initial size; it doubles whenever a
	// quarter full — three probes of a missing key in four end at the first
	// slot they look at — so clearing it costs in proportion to the distinct
	// keys.
	probeMinBits = 6
)

// directSpan reports max − min and whether n keys within [min, max] are
// addressed directly. The span is computed unsigned: keys at both int64 edges
// must read as a huge range, not a wrapped small one.
func directSpan(min, max int64, n int) (uint64, bool) {
	span := uint64(max) - uint64(min)
	return span, span < directSlotsPerKey*uint64(n)
}

// offsets32 panics when n tuples cannot be addressed by the int32 ids and
// offsets the hash structures store: a loud failure, never a wrapped offset.
func offsets32(n int) {
	if n >= math.MaxInt32 {
		panic(fmt.Sprintf("storage: %d tuples exceed the hash structures' int32 offsets", n))
	}
}

// KeyBounds returns the smallest and largest value of vals (0, 0 when empty).
func KeyBounds(vals []int64) (lo, hi int64) {
	if len(vals) == 0 {
		return 0, 0
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

// Reset empties the table and picks its form for n keys within [min, max].
func (t *KeyTable) Reset(min, max int64, n int) {
	offsets32(n)
	t.keys = t.keys[:0]
	size := 1 << probeMinBits
	t.shift = 64 - probeMinBits
	if span, ok := directSpan(min, max, n); ok {
		t.min, t.span, t.shift = min, span, 0
		size = int(span) + 1
	}
	t.slots = zeroed(t.slots, size)
}

// zeroed returns size zero values, in s's own array when it is big enough.
func zeroed[T int32 | int64 | uint64](s []T, size int) []T {
	if cap(s) < size {
		return make([]T, size)
	}
	s = s[:size]
	clear(s)
	return s
}

// Keys returns the distinct keys seen so far, indexed by id. The slice is the
// table's own: valid until the next Assign or Reset.
func (t *KeyTable) Keys() []int64 { return t.keys }

// slotOf is the probing form's home slot: Fibonacci hashing, top bits.
func slotOf(v int64, shift uint) uint64 {
	return (uint64(v) * 0x9E3779B97F4A7C15) >> shift
}

// Assign stores the id of vals[i] in ids[i], giving every value not seen
// since Reset the next id. Every value must lie within Reset's bounds.
func (t *KeyTable) Assign(ids, vals []int64) {
	ids = ids[:len(vals)]
	keys := t.keys
	if t.shift == 0 {
		slots, lo := t.slots, uint64(t.min)
		for i, v := range vals {
			s := &slots[uint64(v)-lo]
			if *s == 0 {
				keys = append(keys, v)
				*s = int32(len(keys))
			}
			ids[i] = int64(*s) - 1
		}
		t.keys = keys
		return
	}
	slots, shift := t.slots, t.shift
	mask := uint64(len(slots) - 1)
	for i, v := range vals {
		h := slotOf(v, shift)
		for {
			s := slots[h]
			if s == 0 {
				keys = append(keys, v)
				slots[h] = int32(len(keys))
				ids[i] = int64(len(keys)) - 1
				if 4*len(keys) > len(slots) {
					t.keys = keys
					t.grow()
					slots, shift = t.slots, t.shift
					mask = uint64(len(slots) - 1)
				}
				break
			}
			if keys[s-1] == v {
				ids[i] = int64(s) - 1
				break
			}
			h = (h + 1) & mask
		}
	}
	t.keys = keys
}

// grow doubles the probing form's slot array and re-inserts every key.
func (t *KeyTable) grow() {
	t.slots = zeroed(t.slots, 2*len(t.slots))
	t.shift--
	mask := uint64(len(t.slots) - 1)
	for id, k := range t.keys {
		h := slotOf(k, t.shift)
		for t.slots[h] != 0 {
			h = (h + 1) & mask
		}
		t.slots[h] = int32(id) + 1
	}
}

// Find returns the id Assign gave v, or false when v was never assigned.
func (t *KeyTable) Find(v int64) (int, bool) {
	if t.shift == 0 {
		k := uint64(v) - uint64(t.min)
		if k > t.span || t.slots[k] == 0 {
			return 0, false
		}
		return int(t.slots[k]) - 1, true
	}
	mask := uint64(len(t.slots) - 1)
	for h := slotOf(v, t.shift); ; h = (h + 1) & mask {
		s := t.slots[h]
		if s == 0 {
			return 0, false
		}
		if t.keys[s-1] == v {
			return int(s) - 1, true
		}
	}
}
