package storage

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func intCol(name string, vals ...int64) *Column {
	return NewIntColumn(name, vals)
}

func TestColumnBasics(t *testing.T) {
	c := intCol("a", 10, 20, 30, 40)
	if c.Len() != 4 || c.Seq() != 0 || c.EndSeq() != 4 {
		t.Fatalf("basics wrong: len=%d seq=%d end=%d", c.Len(), c.Seq(), c.EndSeq())
	}
	if c.Bytes() != 32 {
		t.Fatalf("Bytes = %d", c.Bytes())
	}
	if c.Base() != c {
		t.Fatal("base column's Base() is not itself")
	}
	if c.ValueAtOid(2) != 30 {
		t.Fatalf("ValueAtOid(2) = %d", c.ValueAtOid(2))
	}
}

func TestViewOidArithmetic(t *testing.T) {
	c := intCol("a", 10, 20, 30, 40, 50)
	v := c.View(1, 4) // oids 1,2,3 → values 20,30,40
	if v.Seq() != 1 || v.EndSeq() != 4 || v.Len() != 3 {
		t.Fatalf("view span wrong: seq=%d end=%d len=%d", v.Seq(), v.EndSeq(), v.Len())
	}
	if v.Base() != c {
		t.Fatal("view Base() is not the base column")
	}
	if got := v.ValueAtOid(3); got != 40 {
		t.Fatalf("ValueAtOid(3) = %d, want 40", got)
	}
	if _, ok := v.OidToPos(0); ok {
		t.Fatal("oid 0 should be outside view [1,4)")
	}
	if _, ok := v.OidToPos(4); ok {
		t.Fatal("oid 4 should be outside view [1,4)")
	}
	// Nested views keep absolute oids aligned with the base (Figure 8).
	vv := v.View(1, 3) // oids 2,3
	if vv.Seq() != 2 || vv.ValueAtOid(2) != 30 {
		t.Fatalf("nested view misaligned: seq=%d", vv.Seq())
	}
	if vv.Base() != c {
		t.Fatal("nested view lost base")
	}
}

func TestViewOutOfRangePanics(t *testing.T) {
	c := intCol("a", 1, 2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("View(1,5) did not panic")
		}
	}()
	c.View(1, 5)
}

func TestValueAtOidPanicsOutside(t *testing.T) {
	c := intCol("a", 1, 2, 3)
	v := c.View(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("ValueAtOid outside view did not panic")
		}
	}()
	v.ValueAtOid(0)
}

// Property: any binary-split partitioning of a column into views covers every
// base oid exactly once — the "no repetition, no omission" requirement of
// dynamic partitioning (§2.3).
func TestViewPartitioningCoversBaseExactlyOnce(t *testing.T) {
	f := func(n uint8, seed int64) bool {
		size := int(n)%97 + 3
		vals := make([]int64, size)
		for i := range vals {
			vals[i] = int64(i * 7)
		}
		c := NewIntColumn("x", vals)
		rng := rand.New(rand.NewSource(seed))
		parts := []*Column{c}
		for step := 0; step < 6; step++ {
			i := rng.Intn(len(parts))
			p := parts[i]
			if p.Len() < 2 {
				continue
			}
			mid := p.Len() / 2
			left, right := p.View(0, mid), p.View(mid, p.Len())
			parts = append(parts[:i], append([]*Column{left, right}, parts[i+1:]...)...)
		}
		seen := make([]int, size)
		for _, p := range parts {
			for oid := p.Seq(); oid < p.EndSeq(); oid++ {
				if p.ValueAtOid(oid) != vals[oid] {
					return false
				}
				seen[oid]++
			}
		}
		for _, s := range seen {
			if s != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestHashIndexBuildAndCache(t *testing.T) {
	c := intCol("k", 5, 7, 5, 9)
	h1 := c.Hash()
	if got := h1.Lookup(5); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Lookup(5) = %v", got)
	}
	if got := h1.Lookup(42); len(got) != 0 {
		t.Fatalf("Lookup(42) = %v, want empty", got)
	}
	if h1.Tuples() != 4 {
		t.Fatalf("Tuples = %d", h1.Tuples())
	}
	if c.Hash() != h1 {
		t.Fatal("second Hash() did not hit the cache")
	}
	// A view over a different range builds its own index with absolute oids.
	v := c.View(2, 4)
	hv := v.Hash()
	if hv == h1 {
		t.Fatal("view Hash() should build for a new range")
	}
	if got := hv.Lookup(5); len(got) != 1 || got[0] != 2 {
		t.Fatalf("view Lookup(5) = %v, want [2]", got)
	}
	// Same range requested through the base is shared.
	if c.View(2, 4).Hash() != hv {
		t.Fatal("identical ranges did not share one hash build")
	}
}

func TestTableAndCatalog(t *testing.T) {
	tb := NewTable("lineitem")
	tb.MustAddColumn(intCol("l_quantity", 1, 2, 3))
	if err := tb.AddColumn(intCol("l_quantity", 9, 9, 9)); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if err := tb.AddColumn(intCol("short", 1)); err == nil {
		t.Fatal("length-mismatched column accepted")
	}
	if err := tb.AddColumn(NewColumn("seqy", 3, vec.NewInt64([]int64{1, 2, 3}))); err == nil {
		t.Fatal("non-zero seq column accepted")
	}
	if tb.Rows() != 3 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
	if _, err := tb.Column("nope"); err == nil {
		t.Fatal("missing column lookup succeeded")
	}
	if got := tb.MustColumn("l_quantity").At(1); got != 2 {
		t.Fatalf("column value = %d", got)
	}
	names := tb.ColumnNames()
	if len(names) != 1 || names[0] != "l_quantity" {
		t.Fatalf("ColumnNames = %v", names)
	}

	cat := NewCatalog()
	cat.MustAdd(tb)
	if err := cat.Add(tb); err == nil {
		t.Fatal("duplicate table accepted")
	}
	small := NewTable("nation")
	small.MustAddColumn(intCol("n_key", 1))
	cat.MustAdd(small)
	if _, err := cat.Table("ghost"); err == nil {
		t.Fatal("missing table lookup succeeded")
	}
	tabs := cat.Tables()
	if len(tabs) != 2 || tabs[0] != "lineitem" || tabs[1] != "nation" {
		t.Fatalf("Tables = %v", tabs)
	}
}

func TestClassifyScenarios(t *testing.T) {
	cases := []struct {
		lo, hi, tlo, thi int64
		want             AlignScenario
	}{
		{0, 10, 0, 10, AlignExact},
		{2, 8, 0, 10, AlignInside},
		{0, 8, 2, 10, AlignOvershootLow},
		{2, 12, 0, 10, AlignOvershootHigh},
		{0, 12, 2, 10, AlignOvershootBoth},
		{0, 2, 2, 10, AlignDisjoint},
		{10, 12, 2, 10, AlignDisjoint},
	}
	for _, tc := range cases {
		if got := Classify(tc.lo, tc.hi, tc.tlo, tc.thi); got != tc.want {
			t.Errorf("Classify(%d,%d,%d,%d) = %v, want %v", tc.lo, tc.hi, tc.tlo, tc.thi, got, tc.want)
		}
	}
}

func TestAlignOids(t *testing.T) {
	// The Figure 10 example: LT holds row ids 2,4,5,7,8 while RH covers
	// oids [1,8); row id 8 must be removed.
	oids := []int64{2, 4, 5, 7, 8}
	kept, dropped, asc := AlignOids(oids, 1, 8)
	if dropped != 1 || len(kept) != 4 || kept[3] != 7 || !asc {
		t.Fatalf("AlignOids = %v dropped=%d ascending=%v", kept, dropped, asc)
	}
	// Out-of-view oids at the ends trim to a sub-slice, not a copy.
	if &kept[0] != &oids[0] {
		t.Fatal("AlignOids copied an ascending list")
	}
	// No trimming needed: same slice returned, zero allocations implied.
	kept2, dropped2, _ := AlignOids(kept, 0, 100)
	if dropped2 != 0 || &kept2[0] != &kept[0] {
		t.Fatal("AlignOids copied when no trimming was needed")
	}
	// Dropped oids between kept ones force a copy; ascending describes the
	// kept oids only (9 and 0 are outside the view).
	kept3, dropped3, asc3 := AlignOids([]int64{9, 3, 0, 5}, 1, 8)
	if dropped3 != 2 || len(kept3) != 2 || kept3[0] != 3 || kept3[1] != 5 || !asc3 {
		t.Fatalf("AlignOids interleaved = %v dropped=%d ascending=%v", kept3, dropped3, asc3)
	}
	if _, _, asc4 := AlignOids([]int64{5, 3}, 1, 8); asc4 {
		t.Fatal("AlignOids reported a descending list as ascending")
	}
}

// Property: aligning an arbitrary oid set against a partitioning of the
// target yields each in-range oid in exactly one partition (no repetition, no
// omission — the two failure modes §2.3 warns about).
func TestAlignOidsPartitionProperty(t *testing.T) {
	f := func(raw []uint16, cut uint16, n uint16) bool {
		size := int64(n)%200 + 10
		c := int64(cut) % size
		var oids []int64
		for _, r := range raw {
			oids = append(oids, int64(r)%(size+6)-3) // some outside [0,size)
		}
		left, dl, _ := AlignOids(oids, 0, c)
		right, dr, _ := AlignOids(oids, c, size)
		inRange := 0
		for _, o := range oids {
			if o >= 0 && o < size {
				inRange++
			}
		}
		if len(left)+len(right) != inRange {
			return false
		}
		_ = dl
		_ = dr
		for _, o := range left {
			if o < 0 || o >= c {
				return false
			}
		}
		for _, o := range right {
			if o < c || o >= size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAlignRange(t *testing.T) {
	if lo, hi := AlignRange(0, 12, 2, 10); lo != 2 || hi != 10 {
		t.Fatalf("AlignRange both = [%d,%d)", lo, hi)
	}
	if lo, hi := AlignRange(3, 5, 0, 10); lo != 3 || hi != 5 {
		t.Fatalf("AlignRange inside = [%d,%d)", lo, hi)
	}
	if lo, hi := AlignRange(12, 20, 2, 10); lo != hi {
		t.Fatalf("AlignRange disjoint = [%d,%d), want empty", lo, hi)
	}
}
