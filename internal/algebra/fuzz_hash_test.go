package algebra_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	. "repro/internal/algebra"
	"repro/internal/storage"
	"repro/internal/vec"
)

// FuzzHashKernels is the differential fuzz for the map-free hash kernels:
// HashJoinInto against NestedLoopJoin, GroupBy and GroupMerge against the
// map-backed ref* bodies, over key columns that force each representation
// and sit on its edges — a narrow range (direct addressing), a few keys
// scattered over a huge one (probing), every key distinct (the probing table
// doubles repeatedly), a filtered key range probed across the whole range
// (the ranked bitmap, mostly missing), all equal, empty, one tuple, keys at
// both int64 edges (the NoLow / NoHigh sentinels: max − min must be taken
// unsigned), duplicate-heavy inners whose matches outgrow any destination
// sized for the outer, dictionary-coded keys, views with Seq() != 0 — into
// destinations that are nil, too small, or recycled with stale contents.
func FuzzHashKernels(f *testing.F) {
	for shape := uint8(0); shape < 9; shape++ {
		f.Add(int64(shape)*31+1, shape, uint16(13*int(shape)), uint16(200), uint16(40), shape)
	}
	f.Add(int64(99), uint8(1), uint16(0), uint16(0), uint16(0), uint8(0))      // both sides empty
	f.Add(int64(98), uint8(2), uint16(5), uint16(1), uint16(1), uint8(2))      // one tuple each
	f.Add(int64(97), uint8(8), uint16(7), uint16(399), uint16(1199), uint8(3)) // a filtered range dense enough for the direct form
	f.Add(int64(96), uint8(17), uint16(0), uint16(300), uint16(9), uint8(1))   // a handful of filtered keys: the bitmap

	f.Fuzz(func(t *testing.T, seed int64, shape uint8, offset, nOuter, nInner uint16, dstMode uint8) {
		r := rand.New(rand.NewSource(seed))
		var dict *vec.Dict
		var key, outerKey func() int64
		switch shape % 9 {
		case 0: // narrow range: direct addressing
			base := r.Int63n(1 << 40)
			key = func() int64 { return base + int64(r.Intn(50)) }
		case 1: // a few keys over a huge range: probing
			pool := make([]int64, 1+r.Intn(40))
			for i := range pool {
				pool[i] = r.Int63() - r.Int63()
			}
			key = func() int64 { return pool[r.Intn(len(pool))] }
		case 2: // nearly all distinct: the probing table grows
			key = func() int64 { return int64(r.Intn(1<<20)) * 4099 }
		case 3: // all equal
			v := r.Int63()
			key = func() int64 { return v }
		case 4: // both int64 edges, where NoLow / NoHigh live
			edges := []int64{NoLow, NoHigh, math.MinInt64 + 1, math.MaxInt64 - 1, 0, -1}
			key = func() int64 { return edges[r.Intn(len(edges))] }
		case 5: // hugging one edge: a narrow range whose min is MinInt64
			key = func() int64 { return math.MinInt64 + int64(r.Intn(9)) }
		case 6: // hugging the other
			key = func() int64 { return math.MaxInt64 - int64(r.Intn(9)) }
		case 8: // a filtered key range: the inner holds every k-th key of a few thousand
			base, span, k := r.Int63()-r.Int63(), 1000+r.Intn(4000), 2+r.Intn(199)
			key = func() int64 { return base + int64(k*r.Intn(span/k+1)) }
			outerKey = func() int64 { return base + int64(r.Intn(span+2)) - 1 }
		default: // dictionary codes
			dict = vec.NewDict()
			for _, s := range []string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"} {
				dict.Code(s)
			}
			key = func() int64 { return int64(r.Intn(dict.Len())) }
		}
		if outerKey == nil {
			outerKey = key
		}
		column := func(name string, n int, key func() int64) *storage.Column {
			off := int(offset % 300)
			vals := make([]int64, off+n+r.Intn(5))
			for i := range vals {
				vals[i] = key()
			}
			var data *vec.Vector
			if dict != nil {
				data = vec.NewDictCoded(vals, dict)
			} else {
				data = vec.NewInt64(vals)
			}
			return storage.NewColumn(name, 0, data).View(off, off+n)
		}
		// A short outer against a longer, duplicate-heavy inner makes
		// matches exceed len(outer): the append-past-capacity path.
		outer, inner := column("o", int(nOuter%400), outerKey), column("i", int(nInner%1200), key)
		dst := func() []int64 {
			switch dstMode % 4 {
			case 0:
				return nil
			case 1:
				return make([]int64, 0, 1)
			case 2:
				stale := make([]int64, 600)
				for i := range stale {
					stale[i] = -7
				}
				return stale[:r.Intn(len(stale))]
			default:
				return make([]int64, r.Intn(4), r.Intn(outer.Len()+2)+4)
			}
		}

		wantL, wantR := NestedLoopJoin(outer, inner)
		var cached *storage.HashIndex
		for call := 0; call < 2; call++ { // build, then the cached index
			gotL, gotR, w := HashJoinInto(dst(), dst(), outer, inner)
			if !slices.Equal(gotL, wantL) || !slices.Equal(gotR, wantR) {
				t.Fatalf("call %d: HashJoinInto over %v ⋈ %v = %v / %v, want %v / %v",
					call, outer.Values(), inner.Values(), gotL, gotR, wantL, wantR)
			}
			if w.TuplesOut != int64(len(wantL)) || w.HashProbes != int64(outer.Len()) || w.HashBuilds != 0 {
				t.Fatalf("call %d: work %+v for %d matches over %d probes", call, w, len(wantL), outer.Len())
			}
			if idx := inner.Hash(); call == 0 {
				cached = idx
			} else if idx != cached {
				t.Fatalf("call %d: the join rebuilt the inner's cached index", call)
			}
		}

		wantKeys, wantGIDs, ww := refGroupBy(inner)
		g, gw := GroupBy(inner)
		if !slices.Equal(g.Keys.Values(), wantKeys) || !slices.Equal(g.GIDs, wantGIDs) || gw != ww || g.Keys.Dict() != dict {
			t.Fatalf("GroupBy(%v) = keys %v gids %v work %+v, want keys %v gids %v work %+v",
				inner.Values(), g.Keys.Values(), g.GIDs, gw, wantKeys, wantGIDs, ww)
		}
		// The packed per-partition form: the inner's keys again, cut in two,
		// each half grouped on its own and merged.
		cut := r.Intn(inner.Len() + 1)
		var keyParts, aggParts []*storage.Column
		for _, part := range []*storage.Column{inner.View(0, cut), inner.View(cut, inner.Len())} {
			pg, _ := GroupBy(part)
			counts, _ := AggrGrouped(AggrCount, part, pg)
			keyParts, aggParts = append(keyParts, pg.Keys), append(aggParts, counts)
		}
		pk, _ := PackColumns(keyParts)
		pa, _ := PackColumns(aggParts)
		for _, fn := range []AggrFunc{AggrCount, AggrMin, AggrMax} {
			wantKeys, wantAggs, ww := refGroupMerge(fn, pk, pa)
			mk, ma, mw := GroupMerge(fn, pk, pa)
			if !slices.Equal(mk.Values(), wantKeys) || !slices.Equal(ma.Values(), wantAggs) || mw != ww {
				t.Fatalf("GroupMerge(%s, %v, %v) = %v / %v work %+v, want %v / %v work %+v",
					fn, pk.Values(), pa.Values(), mk.Values(), ma.Values(), mw, wantKeys, wantAggs, ww)
			}
		}
		// Merged partial counts are the serial group sizes.
		_, merged, _ := GroupMerge(AggrCount, pk, pa)
		serial, _ := AggrGrouped(AggrCount, inner, g)
		if !slices.Equal(merged.Values(), serial.Values()) {
			t.Fatalf("merged counts %v, serial counts %v", merged.Values(), serial.Values())
		}
	})
}
