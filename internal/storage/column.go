// Package storage implements the column-store substrate the paper assumes:
// columns with virtual consecutive head oids (MonetDB's hseqbase), zero-copy
// range-partition views over base and intermediate columns, tables and a
// catalog, a shared hash-index cache (MonetDB caches hash indexes on BATs, so
// cloned join operators re-use a single build — §2.1: a base column's index
// belongs to the catalog like its data, built on first use and charged to no
// plan; an intermediate's is rebuilt by its producer every run), and the
// boundary alignment rules for dynamically partitioned tuple reconstruction
// (§2.3, Figures 9 and 10).
package storage

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/vec"
)

// Column is a BAT-like column: a virtual head of consecutive oids starting at
// Seq paired with a payload tail. Views created by View share the payload of
// their base column; Seq keeps oid arithmetic aligned with the base so that
// dynamically sized partitions stay "aligned on the base column" (Figure 8D).
type Column struct {
	name string
	seq  int64
	data *vec.Vector

	base *Column // base column of a view chain; nil for base columns

	mu     sync.Mutex
	hashes map[hashKey]*HashIndex // populated on base columns only
}

type hashKey struct {
	lo, hi int64
}

// NewColumn creates a base column with head oids [seq, seq+len).
func NewColumn(name string, seq int64, data *vec.Vector) *Column {
	return &Column{name: name, seq: seq, data: data}
}

// NewIntColumn is a convenience wrapper over NewColumn for int64 payloads
// with head oids starting at zero.
func NewIntColumn(name string, vals []int64) *Column {
	return NewColumn(name, 0, vec.NewInt64(vals))
}

// NewBuilderColumn creates a column over positions [lo, hi) of a caller-owned
// shared result buffer: the zero-copy exchange's partition clones publish
// their output as views over one builder instead of materializing private
// copies. The head starts at seq, so a clone writing buffer range [lo,hi) can
// stay oid-aligned with the conceptual full intermediate (§2.3).
func NewBuilderColumn(name string, seq int64, b *vec.Builder, lo, hi int) *Column {
	return NewColumn(name, seq, b.View(lo, hi))
}

// Name returns the column name (view names inherit the base name).
func (c *Column) Name() string { return c.name }

// Seq returns the first head oid.
func (c *Column) Seq() int64 { return c.seq }

// Len returns the number of tuples.
func (c *Column) Len() int { return c.data.Len() }

// Bytes returns the payload size in bytes.
func (c *Column) Bytes() int64 { return c.data.Bytes() }

// Data exposes the payload vector (read-only).
func (c *Column) Data() *vec.Vector { return c.data }

// Values exposes the raw payload values (read-only).
func (c *Column) Values() []int64 { return c.data.Values() }

// At returns the payload value at position i of this view (not an absolute
// oid; see ValueAtOid for oid-based access).
func (c *Column) At(i int) int64 { return c.data.At(i) }

// Dict returns the string dictionary for dictionary-coded columns, or nil.
func (c *Column) Dict() *vec.Dict { return c.data.Dict() }

// Base returns the base column of a view chain (itself for base columns).
func (c *Column) Base() *Column {
	if c.base != nil {
		return c.base
	}
	return c
}

// EndSeq returns one past the last head oid: the view covers oids
// [Seq, EndSeq).
func (c *Column) EndSeq() int64 { return c.seq + int64(c.data.Len()) }

// View returns a zero-copy range-partition slice over positions [lo, hi) of
// the receiver. The view's head oids continue the receiver's oid space
// (seq+lo ...), which is exactly the "read only slices on the base or the
// intermediate column" partitioning of §2.3: no data copy, boundary ranges
// only.
func (c *Column) View(lo, hi int) *Column {
	if lo < 0 || hi < lo || hi > c.Len() {
		panic(fmt.Sprintf("storage: view [%d,%d) out of range for column %q of length %d", lo, hi, c.name, c.Len()))
	}
	return &Column{
		name: c.name,
		seq:  c.seq + int64(lo),
		data: c.data.Slice(lo, hi),
		base: c.Base(),
	}
}

// OidToPos translates an absolute head oid into a position of this view, and
// reports whether the oid falls inside the view.
func (c *Column) OidToPos(oid int64) (int, bool) {
	pos := oid - c.seq
	if pos < 0 || pos >= int64(c.Len()) {
		return 0, false
	}
	return int(pos), true
}

// ValueAtOid returns the payload value addressed by absolute head oid.
func (c *Column) ValueAtOid(oid int64) int64 {
	pos, ok := c.OidToPos(oid)
	if !ok {
		panic(fmt.Sprintf("storage: oid %d outside view [%d,%d) of column %q", oid, c.seq, c.EndSeq(), c.name))
	}
	return c.data.At(pos)
}

// HashIndex is a value → head-oid multimap built over a column range. Builds
// are cached on the base column keyed by the covered oid range, so two cloned
// join operators probing the same inner share one build — the behaviour the
// paper relies on when only the outer join input is partitioned (§2.1).
//
// The index is a CSR multimap: oids holds every head oid grouped by key, in
// ascending oid order within a key, and bucket b's matches are
// oids[starts[b]:starts[b+1]]. newHashIndex picks one of three forms from the
// keys' minimum, maximum and count alone:
//   - direct, when the range is small against the tuple count (directSpan —
//     TPC-H/DS keys): the bucket of v is v − min;
//   - ranked bitmap, when the range is too wide for that but a presence bitmap
//     over it takes at most max(tuples, minBitmapWords) words (a filtered
//     intermediate): the bucket of v is its rank among the keys, so a probe
//     that misses costs a range test and a bit test, no hash;
//   - probing otherwise: a KeyTable maps the key to an id, the bucket.
type HashIndex struct {
	oids   []int64
	starts []int32
	min    int64     // direct and bitmap forms
	span   uint64    // direct form: largest valid v − min
	bitmap []uint64  // bitmap form: bit v − min is set when v is a key
	ranks  []int32   // bitmap form: the number of keys below each word
	table  *KeyTable // probing form
}

// minBitmapWords lets the bitmap form take this many words even for a handful
// of tuples: with an int32 rank per word the form costs at most 12 B per tuple
// or 12 KB in all, a table that stays in L1.
const minBitmapWords = 1024

// rankOf is the bitmap form's bucket of the key at offset b = v − min, or
// false when no key has that offset. The bits past span are never set, so a
// miss is one word-range test and one bit test; a hit adds the keys below b's
// word to the set bits below b within it.
func rankOf(bitmap []uint64, ranks []int32, b uint64) (uint64, bool) {
	w, bit := b>>6, uint64(1)<<(b&63)
	if w >= uint64(len(bitmap)) || bitmap[w]&bit == 0 {
		return 0, false
	}
	return uint64(ranks[w]) + uint64(bits.OnesCount64(bitmap[w]&(bit-1))), true
}

// Lookup returns the head oids whose value equals v, ascending. The returned
// slice must be treated as read-only.
func (h *HashIndex) Lookup(v int64) []int64 {
	b := uint64(v) - uint64(h.min)
	switch {
	case h.table != nil:
		id, ok := h.table.Find(v)
		if !ok {
			return nil
		}
		b = uint64(id)
	case h.bitmap != nil:
		var ok bool
		if b, ok = rankOf(h.bitmap, h.ranks, b); !ok {
			return nil
		}
	case b > h.span:
		return nil
	}
	return h.oids[h.starts[b]:h.starts[b+1]]
}

// Probe looks up every value of vals, whose head oids start at seq, and
// appends one (outer oid, matching oid) pair per match to the two vectors:
// outer oids in scan order, each one's matches ascending. The vectors must be
// equally long; when their capacity runs out it is at least doubled.
func (h *HashIndex) Probe(louter, rinner, vals []int64, seq int64) ([]int64, []int64) {
	n := len(louter)
	l, r := louter[:cap(louter)], rinner[:cap(rinner)]
	emit := func(oid int64, matches []int64) {
		if need := n + len(matches); need > len(l) || need > len(r) {
			l = slices.Grow(l[:n], max(n, len(matches)))
			r = slices.Grow(r[:n], max(n, len(matches)))
			l, r = l[:cap(l)], r[:cap(r)]
		}
		for _, m := range matches {
			l[n], r[n] = oid, m
			n++
		}
	}
	if t := h.table; t != nil {
		// KeyTable.Find, spelled out: a miss should cost one slot load, not
		// a call.
		slots, keys, shift := t.slots, t.keys, t.shift
		mask := uint64(len(slots) - 1)
		for i, v := range vals {
			for p := slotOf(v, shift); slots[p] != 0; p = (p + 1) & mask {
				if id := slots[p] - 1; keys[id] == v {
					emit(seq+int64(i), h.oids[h.starts[id]:h.starts[id+1]])
					break
				}
			}
		}
		return l[:n], r[:n]
	}
	if h.bitmap != nil {
		for i, id := h.nextKey(vals, 0); i < len(vals); i, id = h.nextKey(vals, i+1) {
			emit(seq+int64(i), h.oids[h.starts[id]:h.starts[id+1]])
		}
		return l[:n], r[:n]
	}
	lo, span := uint64(h.min), h.span
	for i, v := range vals {
		if b := uint64(v) - lo; b <= span {
			emit(seq+int64(i), h.oids[h.starts[b]:h.starts[b+1]])
		}
	}
	return l[:n], r[:n]
}

// nextKey is the bitmap form's probe loop: the first position from i on whose
// value is a key, and that key's bucket; len(vals) when there is none. It is
// a function of its own so that the misses it skips run in registers, free of
// the spills that emit's growth call forces on a loop around it.
func (h *HashIndex) nextKey(vals []int64, i int) (int, uint64) {
	lo, bitmap, ranks := uint64(h.min), h.bitmap, h.ranks
	for ; i < len(vals); i++ {
		if id, ok := rankOf(bitmap, ranks, uint64(vals[i])-lo); ok {
			return i, id
		}
	}
	return i, 0
}

// Tuples reports how many tuples the index covers.
func (h *HashIndex) Tuples() int64 { return int64(len(h.oids)) }

// newHashIndex builds the index over vals, whose head oids start at seq, into
// h's storage (nil: a new index): one pass numbers every tuple's bucket, a
// counting sort by bucket does the rest.
func newHashIndex(h *HashIndex, vals []int64, seq int64) *HashIndex {
	offsets32(len(vals))
	var old HashIndex
	if h == nil {
		h = new(HashIndex)
	} else {
		old = *h
	}
	*h = HashIndex{oids: zeroed(old.oids, len(vals))}
	buckets := make([]int64, len(vals))
	nb := 0
	lo, hi := KeyBounds(vals)
	span, direct := directSpan(lo, hi, len(vals))
	switch {
	case direct:
		h.min, h.span = lo, span
		for i, v := range vals {
			buckets[i] = v - lo
		}
		nb = int(span) + 1
	case span/64 < uint64(max(len(vals), minBitmapWords)): // span/64 + 1 words
		// Ranks number the keys in ascending order, so bucket order — and
		// with it the counting sort below — is the direct form's.
		h.min = lo
		h.bitmap = zeroed(old.bitmap, int(span/64)+1)
		h.ranks = zeroed(old.ranks, len(h.bitmap))
		for _, v := range vals {
			b := uint64(v) - uint64(lo)
			h.bitmap[b>>6] |= 1 << (b & 63)
		}
		for w, word := range h.bitmap {
			h.ranks[w] = int32(nb)
			nb += bits.OnesCount64(word)
		}
		for i, v := range vals {
			id, _ := rankOf(h.bitmap, h.ranks, uint64(v)-uint64(lo))
			buckets[i] = int64(id)
		}
	default:
		if h.table = old.table; h.table == nil {
			h.table = new(KeyTable)
		}
		h.table.Reset(lo, hi, len(vals))
		h.table.Assign(buckets, vals)
		nb = len(h.table.Keys())
	}
	// Count into starts[b+2] and prefix-sum, so starts[b+1] is bucket b's
	// write cursor; once every oid is placed it has advanced to bucket b's
	// end — bucket b+1's start — and starts[:nb+1] is the offset array.
	starts := zeroed(old.starts, nb+2)
	for _, b := range buckets {
		starts[b+2]++
	}
	for b := 2; b < len(starts); b++ {
		starts[b] += starts[b-1]
	}
	for i, b := range buckets {
		h.oids[starts[b+1]] = seq + int64(i)
		starts[b+1]++
	}
	h.starts = starts[:nb+1]
	return h
}

// Hash returns the hash index over the receiver's full range, building it on
// first use and caching it on the base column. It does not report whether it
// built: a base column's index is the catalog's and charged to no plan, and an
// intermediate's producer builds (and is charged for) its index with
// RebuildHash before any join probes it.
func (c *Column) Hash() *HashIndex { return c.hash(false) }

// RebuildHash builds the index over the receiver's full range afresh, in the
// storage of the cached one it replaces: how an intermediate's producer gives
// the column an index valid for this run's contents. The caller must own the
// column: no reader of the replaced index may remain.
func (c *Column) RebuildHash() { c.hash(true) }

func (c *Column) hash(rebuild bool) *HashIndex {
	base := c.Base()
	key := hashKey{lo: c.seq, hi: c.EndSeq()}

	base.mu.Lock()
	defer base.mu.Unlock()
	if base.hashes == nil {
		base.hashes = make(map[hashKey]*HashIndex)
	}
	h := base.hashes[key]
	if h != nil && !rebuild {
		return h
	}
	h = newHashIndex(h, c.data.Values(), c.seq)
	base.hashes[key] = h
	return h
}
