package algebra

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/storage"
	"repro/internal/vec"
)

func col(vals ...int64) *storage.Column { return storage.NewIntColumn("c", vals) }

func TestRangeMatches(t *testing.T) {
	cases := []struct {
		name string
		r    Range
		v    int64
		want bool
	}{
		{"between lo edge", Between(2, 5), 2, true},
		{"between hi edge", Between(2, 5), 5, true},
		{"between outside", Between(2, 5), 6, false},
		{"halfopen hi excluded", HalfOpen(2, 5), 5, false},
		{"eq hit", Eq(3), 3, true},
		{"eq miss", Eq(3), 4, false},
		{"lessthan excl", LessThan(3), 3, false},
		{"atmost incl", AtMost(3), 3, true},
		{"greaterthan excl", GreaterThan(3), 3, false},
		{"atleast incl", AtLeast(3), 3, true},
		{"full low", FullRange(), -1 << 40, true},
		{"full high", FullRange(), 1 << 40, true},
	}
	for _, tc := range cases {
		if got := tc.r.Matches(tc.v); got != tc.want {
			t.Errorf("%s: Matches(%d) = %v, want %v", tc.name, tc.v, got, tc.want)
		}
	}
}

func TestSelectReturnsAbsoluteOids(t *testing.T) {
	c := col(10, 20, 30, 40, 50)
	v := c.View(1, 5)
	oids, w := SelectInto(nil, v, AtLeast(30))
	if len(oids) != 3 || oids[0] != 2 || oids[1] != 3 || oids[2] != 4 {
		t.Fatalf("oids = %v", oids)
	}
	if w.TuplesIn != 4 || w.TuplesOut != 3 || w.BytesSeqRead != 32 {
		t.Fatalf("work = %+v", w)
	}
}

func TestSelectEmptyResult(t *testing.T) {
	oids, w := SelectInto(nil, col(1, 2, 3), GreaterThan(100))
	if len(oids) != 0 || w.TuplesOut != 0 {
		t.Fatalf("oids=%v work=%+v", oids, w)
	}
}

// Property: concatenating partitioned selects in partition order equals the
// serial select — the basic-mutation correctness invariant (Figure 3).
func TestSelectPartitionEquivalence(t *testing.T) {
	f := func(vals []int64, cutRaw uint8, lo, hi int64) bool {
		if len(vals) == 0 {
			return true
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		c := storage.NewIntColumn("x", vals)
		pred := Between(lo%100, hi%100)
		serial, _ := SelectInto(nil, c, pred)
		cut := int(cutRaw) % (len(vals) + 1)
		p1, _ := SelectInto(nil, c.View(0, cut), pred)
		p2, _ := SelectInto(nil, c.View(cut, len(vals)), pred)
		packed, _ := PackOidsInto(nil, [][]int64{p1, p2})
		if len(packed) != len(serial) {
			return false
		}
		for i := range packed {
			if packed[i] != serial[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSelectWithCandsRefines(t *testing.T) {
	c := col(5, 15, 25, 35, 45)
	first, _ := SelectInto(nil, c, AtLeast(15)) // oids 1..4
	refined, w, dropped := SelectWithCandsInto(nil, c, AtMost(35), first)
	if dropped != 0 {
		t.Fatalf("dropped = %d", dropped)
	}
	if len(refined) != 3 || refined[0] != 1 || refined[2] != 3 {
		t.Fatalf("refined = %v", refined)
	}
	if w.TuplesIn != 4 || w.TuplesOut != 3 {
		t.Fatalf("work = %+v", w)
	}
}

func TestSelectWithCandsAlignsOutsideView(t *testing.T) {
	c := col(5, 15, 25, 35, 45)
	view := c.View(1, 3) // oids 1,2
	cands := []int64{0, 1, 2, 3}
	refined, _, dropped := SelectWithCandsInto(nil, view, FullRange(), cands)
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	if len(refined) != 2 || refined[0] != 1 || refined[1] != 2 {
		t.Fatalf("refined = %v", refined)
	}
}

// Property: refining with candidates equals selecting the conjunction.
func TestSelectWithCandsConjunction(t *testing.T) {
	f := func(vals []int64, a, b int64) bool {
		c := storage.NewIntColumn("x", vals)
		p1 := AtLeast(a % 50)
		p2 := AtMost(b%50 + 25)
		cands, _ := SelectInto(nil, c, p1)
		got, _, _ := SelectWithCandsInto(nil, c, p2, cands)
		var want []int64
		for i, v := range vals {
			if p1.Matches(v) && p2.Matches(v) {
				want = append(want, int64(i))
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func strCol(t *testing.T, vals ...string) *storage.Column {
	t.Helper()
	d := vec.NewDict()
	codes := make([]int64, len(vals))
	for i, s := range vals {
		codes[i] = d.Code(s)
	}
	return storage.NewColumn("s", 0, vec.NewDictCoded(codes, d))
}

func TestSelectLike(t *testing.T) {
	c := strCol(t, "PROMO STEEL", "STANDARD TIN", "PROMO COPPER", "ECONOMY STEEL")
	oids, w := SelectLikeInto(nil, c, "PROMO", LikePrefix, false)
	if len(oids) != 2 || oids[0] != 0 || oids[1] != 2 {
		t.Fatalf("prefix oids = %v", oids)
	}
	if w.TuplesOut != 2 {
		t.Fatalf("work = %+v", w)
	}
	anti, _ := SelectLikeInto(nil, c, "PROMO", LikePrefix, true)
	if len(anti) != 2 || anti[0] != 1 || anti[1] != 3 {
		t.Fatalf("anti oids = %v", anti)
	}
	sub, _ := SelectLikeInto(nil, c, "STEEL", LikeContains, false)
	if len(sub) != 2 || sub[0] != 0 || sub[1] != 3 {
		t.Fatalf("contains oids = %v", sub)
	}
}

func TestSelectLikeOnViewUsesAbsoluteOids(t *testing.T) {
	c := strCol(t, "a PROMO", "b", "c PROMO", "d PROMO")
	v := c.View(2, 4)
	oids, _ := SelectLikeInto(nil, v, "PROMO", LikeContains, false)
	if len(oids) != 2 || oids[0] != 2 || oids[1] != 3 {
		t.Fatalf("oids = %v", oids)
	}
}

func TestSelectLikePanicsOnIntColumn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SelectLike over int column did not panic")
		}
	}()
	SelectLikeInto(nil, col(1, 2), "x", LikeContains, false)
}
