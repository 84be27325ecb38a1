package algebra

import (
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	f := func(outerVals, innerVals []int64) bool {
		// Shrink the value domain so matches actually occur.
		for i := range outerVals {
			outerVals[i] = outerVals[i]%7 + 1
		}
		for i := range innerVals {
			innerVals[i] = innerVals[i]%7 + 1
		}
		outer := storage.NewIntColumn("o", outerVals)
		inner := storage.NewIntColumn("i", innerVals)
		lo, ro, _ := HashJoin(outer, inner)
		nlo, nro := NestedLoopJoin(outer, inner)
		if len(lo) != len(nlo) {
			return false
		}
		// Hash join emits per outer tuple in scan order; inner match order
		// within one outer tuple follows insertion order, same as nested loop.
		for i := range lo {
			if lo[i] != nlo[i] || ro[i] != nro[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHashJoinBuildCached: a join never reports a build, not even the one
// that built the inner's cached index; BuildHash, the intermediate producer's
// call, reports one per tuple and replaces the cached index.
func TestHashJoinBuildCached(t *testing.T) {
	outer := storage.NewIntColumn("o", []int64{1, 2, 3, 2})
	inner := storage.NewIntColumn("i", []int64{2, 3})
	for call := 0; call < 2; call++ {
		_, _, w := HashJoin(outer, inner)
		if w.HashBuilds != 0 || w.HashProbes != 4 {
			t.Fatalf("join %d: HashBuilds = %d, HashProbes = %d, want 0 and 4", call, w.HashBuilds, w.HashProbes)
		}
	}
	cached := inner.Hash()
	if w := BuildHash(inner); w.HashBuilds != int64(inner.Len()) {
		t.Fatalf("BuildHash HashBuilds = %d, want %d", w.HashBuilds, inner.Len())
	}
	if _, _, w := HashJoin(outer, inner); w.HashBuilds != 0 || inner.Hash() != cached {
		t.Fatalf("after BuildHash: join HashBuilds = %d, index replaced in place = %v", w.HashBuilds, inner.Hash() == cached)
	}
}

// Property: partitioning the outer input and packing the clone outputs in
// partition order reproduces the serial join — the join basic mutation
// (Figure 4).
func TestHashJoinOuterPartitionEquivalence(t *testing.T) {
	f := func(outerVals, innerVals []int64, cutRaw uint8) bool {
		for i := range outerVals {
			outerVals[i] = outerVals[i]%9 + 1
		}
		for i := range innerVals {
			innerVals[i] = innerVals[i]%9 + 1
		}
		outer := storage.NewIntColumn("o", outerVals)
		inner := storage.NewIntColumn("i", innerVals)
		slo, sro, _ := HashJoin(outer, inner)
		cut := 0
		if len(outerVals) > 0 {
			cut = int(cutRaw) % (len(outerVals) + 1)
		}
		l1, r1, _ := HashJoin(outer.View(0, cut), inner)
		l2, r2, _ := HashJoin(outer.View(cut, len(outerVals)), inner)
		plo, _ := PackOidsInto(nil, [][]int64{l1, l2})
		pro, _ := PackOidsInto(nil, [][]int64{r1, r2})
		if len(plo) != len(slo) {
			return false
		}
		for i := range plo {
			if plo[i] != slo[i] || pro[i] != sro[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHashJoinEmptyInputs(t *testing.T) {
	outer := storage.NewIntColumn("o", nil)
	inner := storage.NewIntColumn("i", []int64{1})
	lo, ro, _ := HashJoin(outer, inner)
	if len(lo) != 0 || len(ro) != 0 {
		t.Fatalf("join of empty outer returned %v %v", lo, ro)
	}
	outer2 := storage.NewIntColumn("o2", []int64{1})
	inner2 := storage.NewIntColumn("i2", nil)
	lo2, ro2, _ := HashJoin(outer2, inner2)
	if len(lo2) != 0 || len(ro2) != 0 {
		t.Fatalf("join with empty inner returned %v %v", lo2, ro2)
	}
}

func TestHashFootprintScalesWithInner(t *testing.T) {
	small := storage.NewIntColumn("s", make([]int64, 10))
	large := storage.NewIntColumn("l", make([]int64, 1000))
	if hashFootprint(small) >= hashFootprint(large) {
		t.Fatal("hash footprint does not grow with inner size")
	}
}
