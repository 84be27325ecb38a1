package storage

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// keyShapes are key columns that force each form of the hash structures and
// sit on their edges. The int64 sentinels the algebra uses for open ranges
// are math.MinInt64 / math.MaxInt64 themselves.
func keyShapes() map[string][]int64 {
	r := rand.New(rand.NewSource(3))
	dense := make([]int64, 500)
	for i := range dense {
		dense[i] = 1000 + int64(r.Intn(120)) // span 120 < 4·500: direct
	}
	sparse := make([]int64, 500)
	for i := range sparse {
		sparse[i] = int64(r.Intn(90)) * 1_000_003 // ~90 keys over a huge span: probing, grows past 64 slots
	}
	unique := make([]int64, 3000) // every key once: the probing table doubles many times
	for i := range unique {
		unique[i] = int64(i) * 7919
	}
	var filtered []int64 // every 25th key of 30 000, the Q4 shape, each twice
	for k := int64(0); k < 30_000; k += 25 {
		filtered = append(filtered, k, k)
	}
	var part []int64 // 5 % of 4 000 part keys, the Q9 shape
	for k := int64(0); k < 4000; k++ {
		if r.Intn(20) == 0 {
			part = append(part, k)
		}
	}
	// 2 000 tuples whose span fills exactly 2 000 bitmap words, and one more:
	// the bitmap form's bound where the tuple count, not minBitmapWords, binds.
	atBound := make([]int64, 2000)
	for i := range atBound {
		atBound[i] = int64(i) * 64
	}
	atBound[len(atBound)-1] = 2000*64 - 1
	pastBound := slices.Clone(atBound)
	pastBound[len(pastBound)-1] = 2000 * 64
	return map[string][]int64{
		"empty":         {},
		"one":           {42},
		"all-equal":     {7, 7, 7, 7, 7},
		"dense":         dense,
		"sparse":        sparse,
		"unique":        unique,
		"edges":         {math.MaxInt64, math.MinInt64, 0, math.MaxInt64, -1, math.MinInt64 + 1, math.MaxInt64 - 1},
		"min-only":      {math.MinInt64, math.MinInt64 + 2, math.MinInt64 + 1, math.MinInt64},
		"max-only":      {math.MaxInt64, math.MaxInt64 - 2, math.MaxInt64},
		"filtered":      filtered,
		"filtered-part": part,
		"bitmap-bound":  atBound,
		"past-bound":    pastBound,
		// A bitmap whose min is MinInt64: v − min must be taken unsigned.
		"min-bitmap": {math.MinInt64 + 64*50 + 63, math.MinInt64, math.MinInt64 + 64, math.MinInt64 + 1000},
	}
}

// refLookup is the map-backed index build the CSR form replaced.
func refLookup(vals []int64, seq int64) map[int64][]int64 {
	m := make(map[int64][]int64, len(vals))
	for i, v := range vals {
		m[v] = append(m[v], seq+int64(i))
	}
	return m
}

func TestHashIndexMatchesMapIndex(t *testing.T) {
	for name, vals := range keyShapes() {
		base := NewIntColumn(name, append([]int64{-5, -5, -5}, vals...))
		col := base.View(3, base.Len()) // Seq() != 0, like every partition
		idx := col.Hash()
		if idx.Tuples() != int64(len(vals)) {
			t.Fatalf("%s: tuples=%d, want an index over %d", name, idx.Tuples(), len(vals))
		}
		if col.Hash() != idx {
			t.Fatalf("%s: second Hash() rebuilt", name)
		}
		want := refLookup(vals, col.Seq())
		probes := append([]int64{math.MinInt64, math.MaxInt64, 0, -1, 1, 999, 1120, 1121}, vals...)
		for _, v := range vals {
			probes = append(probes, v-1, v+1)
		}
		// Just outside the range, and bit 0 and bit 63 of the first, second
		// and last bitmap word (unsigned offsets, as the index takes them).
		lo, hi := KeyBounds(vals)
		probes = append(probes, lo-1, hi+1)
		last := (uint64(hi) - uint64(lo)) &^ 63
		for _, w := range []uint64{0, 64, last} {
			probes = append(probes, int64(uint64(lo)+w), int64(uint64(lo)+w+63))
		}
		for _, v := range probes {
			if got := idx.Lookup(v); !slices.Equal(got, want[v]) {
				t.Fatalf("%s: Lookup(%d) = %v, want %v", name, v, got, want[v])
			}
		}
		// Probe is Lookup over a whole vector, appended past a dirty,
		// too-small destination.
		var wantL, wantR []int64
		for i, v := range probes {
			for _, oid := range want[v] {
				wantL, wantR = append(wantL, 100+int64(i)), append(wantR, oid)
			}
		}
		l, r := idx.Probe([]int64{-9, -9}[:0], []int64{-9}[:0], probes, 100)
		if !slices.Equal(l, wantL) || !slices.Equal(r, wantR) {
			t.Fatalf("%s: Probe returned %d/%d pairs, want %d", name, len(l), len(r), len(wantL))
		}
	}
}

// form names the form newHashIndex built h in.
func (h *HashIndex) form() string {
	switch {
	case h.table != nil:
		return "probing"
	case h.bitmap != nil:
		return "bitmap"
	}
	return "direct"
}

func TestHashIndexFormFollowsKeyRange(t *testing.T) {
	want := map[string]string{
		"dense": "direct", "all-equal": "direct", "one": "direct", "min-only": "direct", "max-only": "direct",
		"filtered": "bitmap", "filtered-part": "bitmap", "bitmap-bound": "bitmap", "min-bitmap": "bitmap", "empty": "bitmap",
		"sparse": "probing", "unique": "probing", "edges": "probing", "past-bound": "probing",
	}
	for name, vals := range keyShapes() {
		if got := newHashIndex(nil, vals, 0).form(); got != want[name] {
			t.Errorf("%s: %s form, want %q", name, got, want[name])
		}
	}
}

// TestRebuildHashFollowsContents: an intermediate's producer rebuilds its
// index every run in the storage of the one it replaces, so each rebuild must
// answer from the new keys alone, whatever form the previous keys took.
func TestRebuildHashFollowsContents(t *testing.T) {
	shapes := keyShapes()
	var names []string
	for name := range shapes {
		names = append(names, name)
	}
	slices.Sort(names)
	rev := slices.Clone(names)
	slices.Reverse(rev)
	var h *HashIndex
	for _, name := range append(names, rev...) {
		vals := shapes[name]
		prev := h
		h = newHashIndex(h, vals, 7)
		if prev != nil && h != prev {
			t.Fatalf("%s: rebuild allocated a new index", name)
		}
		want := refLookup(vals, 7)
		for _, v := range vals {
			for _, p := range []int64{v - 1, v, v + 1} {
				if got := h.Lookup(p); !slices.Equal(got, want[p]) {
					t.Fatalf("%s: Lookup(%d) = %v, want %v", name, p, got, want[p])
				}
			}
		}
	}

	buf := []int64{5, 7, 5, 9}
	c := NewIntColumn("k", buf)
	h1 := c.Hash()
	buf[0] = 9 // the producer rewrote its buffer in place
	c.RebuildHash()
	if h2 := c.Hash(); h2 != h1 || !slices.Equal(h2.Lookup(9), []int64{0, 3}) {
		t.Fatalf("after RebuildHash: same=%v Lookup(9)=%v, want the cached index over the new keys", h2 == h1, h2.Lookup(9))
	}
}

func TestKeyTableAssignsFirstAppearanceIDs(t *testing.T) {
	for name, vals := range keyShapes() {
		var tab KeyTable
		for round := 0; round < 2; round++ { // the second round reuses the arrays
			lo, hi := KeyBounds(vals)
			tab.Reset(lo, hi, len(vals))
			ids := make([]int64, len(vals))
			half := len(vals) / 2
			tab.Assign(ids[:half], vals[:half]) // ids continue across calls
			tab.Assign(ids[half:], vals[half:])

			var uniq []int64
			seen := map[int64]int64{}
			for i, v := range vals {
				id, ok := seen[v]
				if !ok {
					id = int64(len(uniq))
					seen[v] = id
					uniq = append(uniq, v)
				}
				if ids[i] != id {
					t.Fatalf("%s round %d: id of vals[%d]=%d is %d, want %d", name, round, i, v, ids[i], id)
				}
			}
			if !slices.Equal(tab.Keys(), uniq) {
				t.Fatalf("%s round %d: %d keys, want %d in first-appearance order", name, round, len(tab.Keys()), len(uniq))
			}
			for _, v := range append([]int64{math.MinInt64, math.MaxInt64, 5}, vals...) {
				id, ok := tab.Find(v)
				if want, has := seen[v]; ok != has || (ok && int64(id) != want) {
					t.Fatalf("%s round %d: Find(%d) = %d, %v, want %d, %v", name, round, v, id, ok, want, has)
				}
			}
		}
	}
}

func TestHashStructuresRefuseColumnsBeyondInt32(t *testing.T) {
	offsets32(math.MaxInt32 - 1)
	defer func() {
		if recover() == nil {
			t.Fatal("offsets32 accepted a tuple count its int32 offsets cannot address")
		}
	}()
	offsets32(math.MaxInt32)
}
