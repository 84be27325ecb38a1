package algebra

import (
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

func TestGroupByFirstAppearanceOrder(t *testing.T) {
	keys := col(5, 3, 5, 9, 3, 5)
	g, w := GroupBy(keys)
	if g.NGroups() != 3 {
		t.Fatalf("NGroups = %d", g.NGroups())
	}
	wantKeys := []int64{5, 3, 9}
	for i, k := range wantKeys {
		if g.Keys.Data().At(i) != k {
			t.Fatalf("Keys[%d] = %d, want %d", i, g.Keys.Data().At(i), k)
		}
	}
	wantGids := []int64{0, 1, 0, 2, 1, 0}
	for i, gid := range wantGids {
		if g.GIDs[i] != gid {
			t.Fatalf("GIDs[%d] = %d, want %d", i, g.GIDs[i], gid)
		}
	}
	if w.TuplesIn != 6 || w.TuplesOut != 3 {
		t.Fatalf("work = %+v", w)
	}
}

func TestAggrGrouped(t *testing.T) {
	keys := col(1, 2, 1, 2, 1)
	vals := col(10, 20, 30, 40, 50)
	g, _ := GroupBy(keys)
	sums, _ := AggrGrouped(AggrSum, vals, g)
	if sums.Data().At(0) != 90 || sums.Data().At(1) != 60 {
		t.Fatalf("sums = %v", sums.Values())
	}
	counts, _ := AggrGrouped(AggrCount, vals, g)
	if counts.Data().At(0) != 3 || counts.Data().At(1) != 2 {
		t.Fatalf("counts = %v", counts.Values())
	}
	mins, _ := AggrGrouped(AggrMin, vals, g)
	if mins.Data().At(0) != 10 || mins.Data().At(1) != 20 {
		t.Fatalf("mins = %v", mins.Values())
	}
	maxs, _ := AggrGrouped(AggrMax, vals, g)
	if maxs.Data().At(0) != 50 || maxs.Data().At(1) != 40 {
		t.Fatalf("maxs = %v", maxs.Values())
	}
}

func TestAggrGroupedMisalignedPanics(t *testing.T) {
	g, _ := GroupBy(col(1, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned AggrGrouped did not panic")
		}
	}()
	AggrGrouped(AggrSum, col(1, 2, 3), g)
}

func TestScalarAggr(t *testing.T) {
	c := col(4, -1, 7)
	if s, _ := Aggr(AggrSum, c); s != 10 {
		t.Fatalf("sum = %d", s)
	}
	if n, _ := Aggr(AggrCount, c); n != 3 {
		t.Fatalf("count = %d", n)
	}
	if m, _ := Aggr(AggrMin, c); m != -1 {
		t.Fatalf("min = %d", m)
	}
	if m, _ := Aggr(AggrMax, c); m != 7 {
		t.Fatalf("max = %d", m)
	}
	if s, _ := Aggr(AggrSum, col()); s != 0 {
		t.Fatalf("sum of empty = %d", s)
	}
}

func TestMergeScalarsIgnoresEmptySentinels(t *testing.T) {
	// Partition 2 was empty: its min partial is the identity sentinel.
	p, _ := PackScalarsOwned("mins", []int64{7, minEmpty, 3})
	got, _ := MergeScalars(AggrMin, p)
	if got != 3 {
		t.Fatalf("merged min = %d, want 3", got)
	}
	allEmpty, _ := PackScalarsOwned("mins", []int64{minEmpty})
	if got, _ := MergeScalars(AggrMin, allEmpty); got != minEmpty {
		t.Fatalf("merge of all-empty = %d, want the empty sentinel", got)
	}
	sums, _ := PackScalarsOwned("sums", []int64{5, 0, 7})
	if got, _ := MergeScalars(AggrSum, sums); got != 12 {
		t.Fatalf("merged sum = %d", got)
	}
	counts, _ := PackScalarsOwned("counts", []int64{2, 3})
	if got, _ := MergeScalars(AggrCount, counts); got != 5 {
		t.Fatalf("merged count = %d", got)
	}
}

// Property: scalar aggregation over partitions + merge equals single-pass
// aggregation (invariant 6 of docs/ARCHITECTURE.md).
func TestScalarAggrPartitionEquivalence(t *testing.T) {
	f := func(vals []int64, cutRaw uint8) bool {
		c := storage.NewIntColumn("v", vals)
		cut := 0
		if len(vals) > 0 {
			cut = int(cutRaw) % (len(vals) + 1)
		}
		for _, fn := range []AggrFunc{AggrSum, AggrCount, AggrMin, AggrMax} {
			serial, _ := Aggr(fn, c)
			p1, _ := Aggr(fn, c.View(0, cut))
			p2, _ := Aggr(fn, c.View(cut, len(vals)))
			packed, _ := PackScalarsOwned("p", []int64{p1, p2})
			merged, _ := MergeScalars(fn, packed)
			if merged != serial {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: grouped aggregation over partitions + GroupMerge equals the
// serial grouped aggregation, including key order — the advanced-mutation
// correctness invariant (Figure 6).
func TestGroupedAggrPartitionEquivalence(t *testing.T) {
	f := func(pairs []uint8, cutRaw uint8) bool {
		n := len(pairs)
		keys := make([]int64, n)
		vals := make([]int64, n)
		for i, p := range pairs {
			keys[i] = int64(p % 5)
			vals[i] = int64(p)
		}
		kc := storage.NewIntColumn("k", keys)
		vc := storage.NewIntColumn("v", vals)

		gs, _ := GroupBy(kc)
		serialAgg, _ := AggrGrouped(AggrSum, vc, gs)

		cut := 0
		if n > 0 {
			cut = int(cutRaw) % (n + 1)
		}
		var keyParts, aggParts []*storage.Column
		for _, span := range [][2]int{{0, cut}, {cut, n}} {
			gk, _ := GroupBy(kc.View(span[0], span[1]))
			ga, _ := AggrGrouped(AggrSum, vc.View(span[0], span[1]), gk)
			keyParts = append(keyParts, gk.Keys)
			aggParts = append(aggParts, ga)
		}
		pk, _ := PackColumns(keyParts)
		pa, _ := PackColumns(aggParts)
		mk, ma, _ := GroupMerge(AggrSum, pk, pa)

		if mk.Len() != gs.NGroups() {
			return false
		}
		for i := 0; i < mk.Len(); i++ {
			if mk.Data().At(i) != gs.Keys.Data().At(i) {
				return false
			}
			if ma.Data().At(i) != serialAgg.Data().At(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupMergeMinMaxAndCount(t *testing.T) {
	keys, _ := PackScalarsOwned("k", []int64{1, 2, 1, 2})
	minP, _ := PackScalarsOwned("m", []int64{5, 9, 3, 11})
	k, m, _ := GroupMerge(AggrMin, keys, minP)
	if k.Len() != 2 || m.Data().At(0) != 3 || m.Data().At(1) != 9 {
		t.Fatalf("min merge: keys=%v vals=%v", k.Values(), m.Values())
	}
	cntP, _ := PackScalarsOwned("c", []int64{2, 3, 4, 5})
	_, c, _ := GroupMerge(AggrCount, keys, cntP)
	if c.Data().At(0) != 6 || c.Data().At(1) != 8 {
		t.Fatalf("count merge = %v", c.Values())
	}
	maxP, _ := PackScalarsOwned("x", []int64{5, 9, 3, 11})
	_, x, _ := GroupMerge(AggrMax, keys, maxP)
	if x.Data().At(0) != 5 || x.Data().At(1) != 11 {
		t.Fatalf("max merge = %v", x.Values())
	}
}

func TestGroupMergeMisalignedPanics(t *testing.T) {
	keys, _ := PackScalarsOwned("k", []int64{1})
	vals, _ := PackScalarsOwned("v", []int64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned GroupMerge did not panic")
		}
	}()
	GroupMerge(AggrSum, keys, vals)
}

func TestAggrFuncStringsAndMerge(t *testing.T) {
	if AggrSum.String() != "sum" || AggrCount.String() != "count" ||
		AggrMin.String() != "min" || AggrMax.String() != "max" {
		t.Fatal("aggregate names wrong")
	}
	if AggrCount.MergeFunc() != AggrSum {
		t.Fatal("count partials must merge by summation")
	}
	if AggrMin.MergeFunc() != AggrMin || AggrSum.MergeFunc() != AggrSum {
		t.Fatal("merge funcs wrong")
	}
}
