package algebra_test

// Work-identity tests for the scan-shaped kernels. The ref* functions below
// are the kernel bodies as they stood before the branch-free rewrite (per-tuple
// Range.Matches + append, ValueAtOid per oid, AlignOids and isAscending as
// separate passes, a per-element switch in aggr and calc), copied here as a
// test-only reference: the production kernels must return the same values,
// the same Work record — virtual time is computed from it, so one unit of
// drift moves every convergence — and the same drop counts, over the TPC-H
// columns at several partitionings. This file is an external test package
// because tpch imports algebra.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	. "repro/internal/algebra"
	"repro/internal/storage"
	"repro/internal/tpch"
)

func refSelectInto(dst []int64, col *storage.Column, pred Range) ([]int64, Work) {
	vals := col.Values()
	seq := col.Seq()
	out := dst[:0]
	if cap(out) == 0 {
		out = make([]int64, 0, len(vals)/4+1)
	}
	for i, v := range vals {
		if pred.Matches(v) {
			out = append(out, seq+int64(i))
		}
	}
	return out, Work{
		BytesSeqRead:  col.Bytes(),
		BytesWritten:  int64(len(out)) * 8,
		TuplesIn:      int64(len(vals)),
		TuplesOut:     int64(len(out)),
		MemClaimBytes: int64(len(out)) * 8,
	}
}

func refAlignOids(oids []int64, tlo, thi int64) (kept []int64, dropped int) {
	for _, o := range oids {
		if o < tlo || o >= thi {
			dropped++
		}
	}
	if dropped == 0 {
		return oids, 0
	}
	kept = make([]int64, 0, len(oids)-dropped)
	for _, o := range oids {
		if o >= tlo && o < thi {
			kept = append(kept, o)
		}
	}
	return kept, dropped
}

func refIsAscending(oids []int64) bool {
	for i := 1; i < len(oids); i++ {
		if oids[i] < oids[i-1] {
			return false
		}
	}
	return true
}

func refSelectWithCandsInto(dst []int64, col *storage.Column, pred Range, cands []int64) ([]int64, Work, int) {
	aligned, dropped := refAlignOids(cands, col.Seq(), col.EndSeq())
	out := dst[:0]
	if cap(out) == 0 {
		out = make([]int64, 0, len(cands)/2+1)
	}
	for _, oid := range aligned {
		if pred.Matches(col.ValueAtOid(oid)) {
			out = append(out, oid)
		}
	}
	w := Work{
		BytesSeqRead:   int64(len(cands)) * 8,
		BytesWritten:   int64(len(out)) * 8,
		TuplesIn:       int64(len(cands)),
		TuplesOut:      int64(len(out)),
		FootprintBytes: col.Bytes(),
		MemClaimBytes:  int64(len(out)) * 8,
	}
	if refIsAscending(aligned) {
		w.BytesSeqRead += int64(len(aligned)) * 8
	} else {
		w.BytesRandRead += int64(len(aligned)) * 8
	}
	return out, w, dropped
}

func refSelectLike(col *storage.Column, pattern string, kind LikeKind, anti bool) ([]int64, Work) {
	dict := col.Dict()
	var member []bool
	switch kind {
	case LikePrefix:
		member = dict.MatchPrefix(pattern)
	default:
		member = dict.MatchSubstring(pattern)
	}
	vals := col.Values()
	seq := col.Seq()
	out := make([]int64, 0, len(vals)/8+1)
	for i, c := range vals {
		if member[c] != anti {
			out = append(out, seq+int64(i))
		}
	}
	return out, Work{
		BytesSeqRead:   col.Bytes() + int64(dict.Len())*16,
		BytesWritten:   int64(len(out)) * 8,
		TuplesIn:       int64(len(vals)),
		TuplesOut:      int64(len(out)),
		FootprintBytes: int64(len(member)),
		MemClaimBytes:  int64(len(out))*8 + int64(len(member)),
	}
}

func refFetchInto(dst []int64, oids []int64, target *storage.Column) (int, Work, int) {
	aligned, dropped := refAlignOids(oids, target.Seq(), target.EndSeq())
	for i, oid := range aligned {
		dst[i] = target.ValueAtOid(oid)
	}
	w := Work{
		BytesSeqRead:   int64(len(oids)) * 8,
		BytesWritten:   int64(len(aligned)) * 8,
		TuplesIn:       int64(len(oids)),
		TuplesOut:      int64(len(aligned)),
		FootprintBytes: target.Bytes(),
		MemClaimBytes:  int64(len(aligned)) * 8,
	}
	if !refIsAscending(aligned) {
		w.BytesRandRead += int64(len(aligned)) * 8
	}
	return len(aligned), w, dropped
}

const (
	refMinEmpty = NoHigh
	refMaxEmpty = NoLow
)

func refIdentity(f AggrFunc) int64 {
	switch f {
	case AggrMin:
		return refMinEmpty
	case AggrMax:
		return refMaxEmpty
	}
	return 0
}

func refCombine(f AggrFunc, acc, v int64) int64 {
	switch f {
	case AggrSum:
		return acc + v
	case AggrCount:
		return acc + 1
	case AggrMin:
		if v < acc {
			return v
		}
		return acc
	case AggrMax:
		if v > acc {
			return v
		}
		return acc
	}
	panic("unknown aggregate")
}

func refAggr(f AggrFunc, vals *storage.Column) (int64, Work) {
	acc := refIdentity(f)
	for _, x := range vals.Values() {
		acc = refCombine(f, acc, x)
	}
	return acc, Work{BytesSeqRead: vals.Bytes(), TuplesIn: int64(vals.Len()), TuplesOut: 1}
}

func refAggrGrouped(f AggrFunc, vals *storage.Column, g *Groups) ([]int64, Work) {
	v := vals.Values()
	out := make([]int64, g.NGroups())
	for i := range out {
		out[i] = refIdentity(f)
	}
	for i, x := range v {
		out[g.GIDs[i]] = refCombine(f, out[g.GIDs[i]], x)
	}
	return out, Work{
		BytesSeqRead:   vals.Bytes() + int64(len(g.GIDs))*8,
		BytesWritten:   int64(len(out)) * 8,
		TuplesIn:       int64(len(v)),
		TuplesOut:      int64(len(out)),
		FootprintBytes: int64(len(out)) * 8,
		MemClaimBytes:  int64(len(out)) * 8,
	}
}

func refMergeScalars(f AggrFunc, partials *storage.Column) (int64, Work) {
	m := f.MergeFunc()
	acc := refIdentity(m)
	for _, x := range partials.Values() {
		if x == refIdentity(f) && (f == AggrMin || f == AggrMax) {
			continue
		}
		acc = refCombine(m, acc, x) // m is never AggrCount
	}
	return acc, Work{BytesSeqRead: partials.Bytes(), TuplesIn: int64(partials.Len()), TuplesOut: 1}
}

func refApply(op CalcOp, a, b int64) int64 {
	switch op {
	case CalcAdd:
		return a + b
	case CalcSub:
		return a - b
	case CalcMul:
		return a * b
	case CalcDiv:
		if b == 0 {
			return 0
		}
		return a / b
	}
	panic("unknown calc op")
}

func refCalcVVInto(dst []int64, op CalcOp, a, b *storage.Column) Work {
	av, bv := a.Values(), b.Values()
	for i := range av {
		dst[i] = refApply(op, av[i], bv[i])
	}
	return Work{
		BytesSeqRead:  a.Bytes() + b.Bytes(),
		BytesWritten:  int64(len(av)) * 8,
		TuplesIn:      int64(len(av)) * 2,
		TuplesOut:     int64(len(av)),
		MemClaimBytes: int64(len(av)) * 8,
	}
}

func refCalcSVInto(dst []int64, op CalcOp, scalar int64, v *storage.Column, scalarLeft bool) Work {
	in := v.Values()
	for i, x := range in {
		if scalarLeft {
			dst[i] = refApply(op, scalar, x)
		} else {
			dst[i] = refApply(op, x, scalar)
		}
	}
	return Work{
		BytesSeqRead:  v.Bytes(),
		BytesWritten:  int64(len(in)) * 8,
		TuplesIn:      int64(len(in)),
		TuplesOut:     int64(len(in)),
		MemClaimBytes: int64(len(in)) * 8,
	}
}

// partitions cuts [0,n) into k contiguous pieces of uneven, seed-chosen sizes
// (dynamic partitioning, §2.3), some possibly empty.
func partitions(r *rand.Rand, n, k int) [][2]int {
	cuts := []int{0}
	for i := 1; i < k; i++ {
		cuts = append(cuts, r.Intn(n+1))
	}
	cuts = append(cuts, n)
	sort.Ints(cuts)
	parts := make([][2]int, 0, k)
	for i := 0; i+1 < len(cuts); i++ {
		parts = append(parts, [2]int{cuts[i], cuts[i+1]})
	}
	return parts
}

// rangesOver returns predicates of every Range shape pitched at the column's
// own value domain, so selectivities span empty to full.
func rangesOver(col *storage.Column) []Range {
	lo, hi := col.At(0), col.At(0)
	for _, v := range col.Values() {
		lo, hi = min(lo, v), max(hi, v)
	}
	mid, q1, q3 := lo+(hi-lo)/2, lo+(hi-lo)/4, lo+(hi-lo)/4*3
	return []Range{
		FullRange(), Eq(col.At(0)), Between(q1, q3), HalfOpen(q1, q3), HalfOpen(mid, mid),
		LessThan(mid), AtMost(mid), GreaterThan(mid), AtLeast(mid), Between(q3, q1),
		{Lo: q1, Hi: q3}, // exclusive both sides
	}
}

func TestKernelsMatchReference(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.1, Seed: 11})
	line := cat.MustTable("lineitem")
	r := rand.New(rand.NewSource(5))

	for _, name := range []string{"l_quantity", "l_shipdate", "l_extendedprice", "l_discount"} {
		col := line.MustColumn(name)
		other := line.MustColumn("l_tax")
		groups := line.MustColumn("l_returnflag")
		preds := rangesOver(col)
		// Candidate lists cover the whole column, so against a partition
		// they overshoot both boundaries; the shuffled copy is a join side.
		asc, _ := SelectInto(nil, col, preds[2])
		shuf := append([]int64(nil), asc...)
		r.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })

		for _, k := range []int{1, 2, 7, 32} {
			var partials [4][]int64
			for pi, p := range partitions(r, col.Len(), k) {
				view := col.View(p[0], p[1])
				at := fmt.Sprintf("%s k=%d part %d [%d,%d)", name, k, pi, p[0], p[1])
				// Beside the whole-column lists, the shapes that reach every
				// exit of the kernels' prefix and tail loops, over this view
				// and over an empty one.
				lists := [][]int64{asc, shuf}
				for _, s := range FetchShapes(view.Seq(), view.EndSeq()) {
					lists = append(lists, s.Oids)
				}
				targets := []*storage.Column{view, col.View(p[0], p[0])}

				for _, pred := range preds {
					want, ww := refSelectInto(nil, view, pred)
					got, gw := SelectInto(nil, view, pred)
					if !slices.Equal(got, want) || gw != ww || cap(got) != cap(want) {
						t.Fatalf("%s SelectInto(nil, %+v): %d oids cap %d work %+v, want %d oids cap %d work %+v",
							at, pred, len(got), cap(got), gw, len(want), cap(want), ww)
					}
					// A recycled buffer with stale contents, too small to
					// hold the result without growing.
					stale := make([]int64, 3, len(want)/3+3)
					got, gw = SelectInto(stale, view, pred)
					wantWarm, _ := refSelectInto(make([]int64, 3, len(want)/3+3), view, pred)
					if !slices.Equal(got, want) || gw != ww || cap(got) != cap(wantWarm) {
						t.Fatalf("%s SelectInto(stale, %+v): %d oids cap %d work %+v, want %d oids cap %d work %+v",
							at, pred, len(got), cap(got), gw, len(want), cap(wantWarm), ww)
					}

					for _, target := range targets {
						for li, cands := range lists {
							want, ww, wd := refSelectWithCandsInto(nil, target, pred, cands)
							got, gw, gd := SelectWithCandsInto(nil, target, pred, cands)
							if !slices.Equal(got, want) || gw != ww || gd != wd || cap(got) != cap(want) {
								t.Fatalf("%s list %d over [%d,%d) SelectWithCandsInto(%+v): %d oids cap %d dropped %d work %+v, want %d oids cap %d dropped %d work %+v",
									at, li, target.Seq(), target.EndSeq(), pred, len(got), cap(got), gd, gw, len(want), cap(want), wd, ww)
							}
						}
					}
				}

				for _, target := range targets {
					for li, oids := range lists {
						want, got := make([]int64, len(oids)), make([]int64, len(oids))
						wn, ww, wd := refFetchInto(want, oids, target)
						gn, gw, gd := FetchInto(got, oids, target)
						if gn != wn || gw != ww || gd != wd || !slices.Equal(got[:gn], want[:wn]) {
							t.Fatalf("%s list %d over [%d,%d) FetchInto: n %d dropped %d work %+v, want n %d dropped %d work %+v",
								at, li, target.Seq(), target.EndSeq(), gn, gd, gw, wn, wd, ww)
						}
						// A recycled destination: longer than needed.
						long := make([]int64, len(oids)+3)
						fn, fw, fd := FetchInto(long, oids, target)
						if fw != ww || fd != wd || !slices.Equal(long[:fn], want[:wn]) {
							t.Fatalf("%s list %d over [%d,%d) FetchInto(long): n %d dropped %d work %+v, want n %d dropped %d work %+v",
								at, li, target.Seq(), target.EndSeq(), fn, fd, fw, wn, wd, ww)
						}
					}
				}

				g, _ := GroupBy(groups.View(p[0], p[1]))
				for fi, f := range []AggrFunc{AggrSum, AggrCount, AggrMin, AggrMax} {
					want, ww := refAggr(f, view)
					got, gw := Aggr(f, view)
					if got != want || gw != ww {
						t.Fatalf("%s Aggr(%s) = %d %+v, want %d %+v", at, f, got, gw, want, ww)
					}
					partials[fi] = append(partials[fi], got)

					wantG, wwG := refAggrGrouped(f, view, g)
					gotG, gwG := AggrGrouped(f, view, g)
					if !slices.Equal(gotG.Values(), wantG) || gwG != wwG {
						t.Fatalf("%s AggrGrouped(%s) = %v %+v, want %v %+v", at, f, gotG.Values(), gwG, wantG, wwG)
					}
				}

				ov := other.View(p[0], p[1])
				want, got := make([]int64, view.Len()), make([]int64, view.Len())
				for _, op := range []CalcOp{CalcAdd, CalcSub, CalcMul, CalcDiv} {
					ww, gw := refCalcVVInto(want, op, view, ov), CalcVVInto(got, op, view, ov)
					if gw != ww || !slices.Equal(got, want) {
						t.Fatalf("%s CalcVVInto(%s): work %+v, want %+v (values equal: %v)", at, op, gw, ww, slices.Equal(got, want))
					}
					for _, left := range []bool{false, true} {
						for _, scalar := range []int64{0, 7, -3} {
							ww, gw := refCalcSVInto(want, op, scalar, view, left), CalcSVInto(got, op, scalar, view, left)
							if gw != ww || !slices.Equal(got, want) {
								t.Fatalf("%s CalcSVInto(%s, %d, left=%v): work %+v, want %+v (values equal: %v)",
									at, op, scalar, left, gw, ww, slices.Equal(got, want))
							}
						}
					}
				}
			}

			// Partition partials (empty-partition sentinels included) merge
			// to the serial aggregate, exactly as before.
			for fi, f := range []AggrFunc{AggrSum, AggrCount, AggrMin, AggrMax} {
				packed := storage.NewIntColumn("partials", partials[fi])
				want, ww := refMergeScalars(f, packed)
				got, gw := MergeScalars(f, packed)
				serial, _ := Aggr(f, col)
				if got != want || gw != ww || got != serial {
					t.Fatalf("%s k=%d MergeScalars(%s) = %d %+v, want %d %+v (serial %d)", name, k, f, got, gw, want, ww, serial)
				}
			}
		}
	}
}

func TestSelectLikeMatchesReference(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.1, Seed: 11})
	r := rand.New(rand.NewSource(6))
	for _, tc := range []struct{ table, column, pattern string }{
		{"orders", "o_comment", "special"},
		{"part", "p_type", "PROMO"},
		{"part", "p_name", "green"},
		{"part", "p_type", "no such value"},
	} {
		col := cat.MustTable(tc.table).MustColumn(tc.column)
		for _, k := range []int{1, 3, 64} {
			for pi, p := range partitions(r, col.Len(), k) {
				view := col.View(p[0], p[1])
				for _, kind := range []LikeKind{LikeContains, LikePrefix} {
					for _, anti := range []bool{false, true} {
						want, ww := refSelectLike(view, tc.pattern, kind, anti)
						got, gw := SelectLikeInto(nil, view, tc.pattern, kind, anti)
						stale := make([]int64, 2, len(want)/2+2)
						warm, wwarm := SelectLikeInto(stale, view, tc.pattern, kind, anti)
						if !slices.Equal(got, want) || gw != ww || cap(got) != cap(want) || !slices.Equal(warm, want) || wwarm != ww {
							t.Fatalf("%s.%s k=%d part %d LIKE %q kind=%d anti=%v: %d oids cap %d work %+v (warm %d, %+v), want %d oids cap %d work %+v",
								tc.table, tc.column, k, pi, tc.pattern, kind, anti, len(got), cap(got), gw, len(warm), wwarm, len(want), cap(want), ww)
						}
					}
				}
			}
		}
	}
}

// Every …Into kernel runs allocation-free once its destination is warm —
// the hot-path contract the serve alloc budgets rest on — including an
// ascending oid list that overshoots the view (the boundary drop used to
// allocate the trimmed list on every request), one that misses it wholly,
// and a shuffled list on the general path.
func TestIntoKernelsDoNotAllocateWhenWarm(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.1, Seed: 11})
	col := cat.MustTable("lineitem").MustColumn("l_quantity")
	tax := cat.MustTable("lineitem").MustColumn("l_tax")
	comment := cat.MustTable("orders").MustColumn("o_comment")
	view := col.View(100, col.Len()-100)
	pred := Between(1, 24)

	cands, _ := SelectInto(nil, col, AtLeast(10)) // ascending, overshoots view on both sides
	oids, _ := SelectInto(nil, view, pred)
	// An ascending list that lies wholly below its view, and a shuffled
	// list, which takes the general path.
	idle := col.View(col.Len()-100, col.Len())
	shuffled := slices.Clone(oids)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	refined, _, dropped := SelectWithCandsInto(nil, view, pred, cands)
	if dropped == 0 {
		t.Fatal("candidate list does not overshoot the view; the boundary-drop case is not covered")
	}
	likes, _ := SelectLikeInto(nil, comment, "special", LikeContains, false)
	vals, calc := make([]int64, len(cands)), make([]int64, view.Len())
	a, b := view, tax.View(100, tax.Len()-100)
	lkeys, okeys := cat.MustTable("lineitem").MustColumn("l_orderkey"), cat.MustTable("orders").MustColumn("o_orderkey")
	lo, ro, _ := HashJoinInto(nil, nil, lkeys, okeys)

	for name, run := range map[string]func(){
		"SelectInto":          func() { oids, _ = SelectInto(oids, view, pred) },
		"SelectWithCandsInto": func() { refined, _, _ = SelectWithCandsInto(refined, view, pred, cands) },
		"SelectLikeInto":      func() { likes, _ = SelectLikeInto(likes, comment, "special", LikeContains, false) },
		"FetchInto":           func() { FetchInto(vals, oids, view) },
		"FetchInto boundary":  func() { FetchInto(vals, cands, view) },
		"FetchInto outside":   func() { FetchInto(vals, oids, idle) },
		"FetchInto shuffled":  func() { FetchInto(vals, shuffled, view) },
		"CalcVVInto":          func() { CalcVVInto(calc, CalcMul, a, b) },
		"CalcSVInto":          func() { CalcSVInto(calc, CalcSub, 100, a, true) },
		"HashJoinInto":        func() { lo, ro, _ = HashJoinInto(lo, ro, lkeys, okeys) },
	} {
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Errorf("%s allocates %v times per run with a warm destination, want 0", name, n)
		}
	}
	// The drop itself is still reported.
	if _, _, d := FetchInto(vals, cands, view); d != dropped {
		t.Fatalf("FetchInto dropped %d, SelectWithCandsInto dropped %d over the same candidates", d, dropped)
	}
}

// Work-identity tests for the hash kernels. refHashJoin, refGroupBy and
// refGroupMerge are the kernel bodies as they stood on Go maps (a
// map[int64][]int64 index cached per inner range, a map[int64]int64 of group
// ids per call), copied here as the test-only reference: the CSR index and
// the key table must return the same oid vectors, the same first-appearance
// groups and the same Work. The one field defined anew is HashJoin's
// MemClaimBytes — the map version read it off cap() of buffers append may
// have regrown; it is now 16·max(len(outer), matches) — which equals the
// reference whenever the reference's buffers never regrew.

// refIndexes stands in for the index cache on the base column.
type refIndexes map[[3]any]map[int64][]int64

func (r refIndexes) hash(c *storage.Column) map[int64][]int64 {
	key := [3]any{c.Base(), c.Seq(), c.EndSeq()}
	if idx, ok := r[key]; ok {
		return idx
	}
	idx := make(map[int64][]int64, c.Len())
	for i, v := range c.Values() {
		idx[v] = append(idx[v], c.Seq()+int64(i))
	}
	r[key] = idx
	return idx
}

func (r refIndexes) hashJoin(outer, inner *storage.Column) (louter, rinner []int64, w Work) {
	idx := r.hash(inner)
	ovals := outer.Values()
	oseq := outer.Seq()
	louter = make([]int64, 0, len(ovals))
	rinner = make([]int64, 0, len(ovals))
	for i, v := range ovals {
		for _, roid := range idx[v] {
			louter = append(louter, oseq+int64(i))
			rinner = append(rinner, roid)
		}
	}
	return louter, rinner, Work{
		BytesSeqRead:   outer.Bytes(),
		BytesRandRead:  int64(len(louter)) * 8,
		BytesWritten:   int64(len(louter)+len(rinner)) * 8,
		TuplesIn:       int64(len(ovals)) + int64(inner.Len()),
		TuplesOut:      int64(len(louter)),
		HashProbes:     int64(len(ovals)),
		FootprintBytes: int64(inner.Len()) * 24,
		MemClaimBytes:  int64(cap(louter)+cap(rinner)) * 8,
	}
}

func refGroupBy(keys *storage.Column) (uniq, gids []int64, w Work) {
	vals := keys.Values()
	gids = make([]int64, len(vals))
	index := make(map[int64]int64, 64)
	for i, v := range vals {
		gid, ok := index[v]
		if !ok {
			gid = int64(len(uniq))
			index[v] = gid
			uniq = append(uniq, v)
		}
		gids[i] = gid
	}
	return uniq, gids, Work{
		BytesSeqRead:   keys.Bytes(),
		BytesWritten:   int64(len(gids)+len(uniq)) * 8,
		TuplesIn:       int64(len(vals)),
		TuplesOut:      int64(len(uniq)),
		HashProbes:     int64(len(vals)),
		CompareOps:     int64(len(vals)),
		FootprintBytes: int64(len(uniq)) * 24,
		MemClaimBytes:  int64(len(gids)+len(uniq))*8 + int64(len(uniq))*24,
	}
}

func refGroupMerge(f AggrFunc, keys, partials *storage.Column) (uniq, aggs []int64, w Work) {
	kv, pv := keys.Values(), partials.Values()
	m := f.MergeFunc()
	index := make(map[int64]int, 64)
	for i, k := range kv {
		j, ok := index[k]
		if !ok {
			j = len(uniq)
			index[k] = j
			uniq = append(uniq, k)
			aggs = append(aggs, refIdentity(m))
		}
		aggs[j] = refCombine(m, aggs[j], pv[i])
	}
	return uniq, aggs, Work{
		BytesSeqRead:   keys.Bytes() + partials.Bytes(),
		BytesWritten:   int64(len(uniq)+len(aggs)) * 8,
		TuplesIn:       int64(len(kv)),
		TuplesOut:      int64(len(uniq)),
		HashProbes:     int64(len(kv)),
		FootprintBytes: int64(len(uniq)) * 24,
		MemClaimBytes:  int64(len(uniq)+len(aggs)) * 8,
	}
}

// checkJoin runs one join through both implementations, twice, into the
// destination dst() hands out. Neither call reports a build, and the second
// probes the index the first left cached.
func checkJoin(t *testing.T, at string, ref refIndexes, dst func() []int64, outer, inner *storage.Column) {
	t.Helper()
	var first *storage.HashIndex
	for call := 0; call < 2; call++ {
		wl, wr, ww := ref.hashJoin(outer, inner)
		gl, gr, gw := HashJoinInto(dst(), dst(), outer, inner)
		if gw.HashBuilds != 0 {
			t.Fatalf("%s call %d: a join reports HashBuilds %d", at, call, gw.HashBuilds)
		}
		if idx := inner.Hash(); call == 0 {
			first = idx
		} else if idx != first {
			t.Fatalf("%s call %d: the join rebuilt the inner's cached index", at, call)
		}
		if !slices.Equal(gl, wl) || !slices.Equal(gr, wr) {
			t.Fatalf("%s call %d: %d/%d oid pairs, want %d", at, call, len(gl), len(gr), len(wl))
		}
		claim := int64(max(outer.Len(), len(wl))) * 16
		if len(wl) <= outer.Len() && claim != ww.MemClaimBytes {
			t.Fatalf("%s call %d: the MemClaimBytes rule gives %d where the reference, never regrown, claims %d", at, call, claim, ww.MemClaimBytes)
		}
		ww.MemClaimBytes = claim
		if gw != ww {
			t.Fatalf("%s call %d: work %+v, want %+v", at, call, gw, ww)
		}
	}
}

// indexForm names the form storage built idx in. Which form a key shape takes
// is storage's decision and unexported, so this reads the fields that mark
// it: a renamed field fails here, never passes silently.
func indexForm(idx *storage.HashIndex) string {
	h := reflect.ValueOf(idx).Elem()
	switch {
	case !h.FieldByName("table").IsNil():
		return "probing"
	case !h.FieldByName("bitmap").IsNil():
		return "bitmap"
	}
	return "direct"
}

func TestHashKernelsMatchReference(t *testing.T) {
	// Inners per index form: a threshold change that leaves a form without an
	// inner here fails instead of leaving it untested.
	forms := map[string]int{}
	for _, sf := range []float64{0.5, 2} {
		cat := tpch.Generate(tpch.Config{SF: sf, Seed: 11})
		line, orders := cat.MustTable("lineitem"), cat.MustTable("orders")
		r := rand.New(rand.NewSource(9))
		// A recycled destination: stale contents, too small for most results.
		dirty := func() []int64 {
			buf := make([]int64, 5+r.Intn(40))
			for i := range buf {
				buf[i] = -7
			}
			return buf[:r.Intn(5)]
		}

		// Intermediates as the inner side: the order keys of a date range
		// (a sparse subset of a dense domain), once as a column of its own
		// and once as a view into the middle of it.
		fetch := func(oids []int64, col *storage.Column) *storage.Column {
			vals := make([]int64, len(oids))
			n, _, _ := FetchInto(vals, oids, col)
			return storage.NewIntColumn(col.Name(), vals[:n])
		}
		picked, _ := SelectInto(nil, orders.MustColumn("o_orderdate"), HalfOpen(700, 790))
		fetched := fetch(picked, orders.MustColumn("o_orderkey"))
		n := fetched.Len()
		// The part keys of Q9's LIKE and of Q17's brand and container
		// predicates: a few per cent, and under one per cent, of the keys.
		part := cat.MustTable("part")
		green, _ := SelectLikeInto(nil, part.MustColumn("p_name"), "green", LikeContains, false)
		brand, _ := SelectLikeInto(nil, part.MustColumn("p_brand"), "Brand#23", LikeContains, false)
		med, _ := SelectLikeInto(nil, part.MustColumn("p_container"), "MED", LikePrefix, false)
		brandMed := slices.DeleteFunc(brand, func(oid int64) bool { _, ok := slices.BinarySearch(med, oid); return !ok })

		joins := []struct {
			name         string
			outer, inner *storage.Column
		}{
			{"l_orderkey-o_orderkey", line.MustColumn("l_orderkey"), orders.MustColumn("o_orderkey")},
			{"l_partkey-p_partkey", line.MustColumn("l_partkey"), cat.MustTable("part").MustColumn("p_partkey")},
			{"l_suppkey-s_suppkey", line.MustColumn("l_suppkey"), cat.MustTable("supplier").MustColumn("s_suppkey")},
			{"o_custkey-c_custkey", orders.MustColumn("o_custkey"), cat.MustTable("customer").MustColumn("c_custkey")},
			{"l_orderkey-fetched", line.MustColumn("l_orderkey"), fetched},
			{"l_orderkey-fetched-view", line.MustColumn("l_orderkey"), fetched.View(n/4, n/2)},
			{"l_partkey-green", line.MustColumn("l_partkey"), fetch(green, part.MustColumn("p_partkey"))},
			{"l_partkey-brand-med", line.MustColumn("l_partkey"), fetch(brandMed, part.MustColumn("p_partkey"))},
			// Hundreds to thousands of values over a range of a million:
			// probing.
			{"l_extendedprice-c_acctbal", line.MustColumn("l_extendedprice"), cat.MustTable("customer").MustColumn("c_acctbal")},
			// Every outer key matches several inner tuples: the result
			// outgrows any destination sized for the outer.
			{"o_orderkey-l_orderkey", orders.MustColumn("o_orderkey"), line.MustColumn("l_orderkey")},
			{"o_custkey-o_custkey", orders.MustColumn("o_custkey").View(0, 2000), orders.MustColumn("o_custkey")},
		}
		for _, j := range joins {
			for _, k := range []int{1, 7, 32} {
				ref := refIndexes{}
				for pi, p := range partitions(r, j.outer.Len(), k) {
					at := fmt.Sprintf("sf=%g %s k=%d part %d", sf, j.name, k, pi)
					// Every clone probes the one index.
					checkJoin(t, at, ref, dirty, j.outer.View(p[0], p[1]), j.inner)
				}
			}
			checkJoin(t, fmt.Sprintf("sf=%g %s nil dst", sf, j.name), refIndexes{}, func() []int64 { return nil }, j.outer, j.inner)
			forms[indexForm(j.inner.Hash())]++
		}

		qty := line.MustColumn("l_quantity")
		for _, name := range []string{"l_returnflag", "l_orderkey", "l_suppkey", "l_shipdate"} {
			keys := line.MustColumn(name)
			for _, k := range []int{1, 7, 32} {
				var packedKeys, packedSums []*storage.Column
				for pi, p := range partitions(r, keys.Len(), k) {
					view := keys.View(p[0], p[1])
					wantKeys, wantGIDs, ww := refGroupBy(view)
					g, gw := GroupBy(view)
					if !slices.Equal(g.Keys.Values(), wantKeys) || !slices.Equal(g.GIDs, wantGIDs) || gw != ww || g.Keys.Dict() != keys.Dict() {
						t.Fatalf("sf=%g GroupBy(%s) k=%d part %d: %d groups work %+v, want %d groups work %+v",
							sf, name, k, pi, g.NGroups(), gw, len(wantKeys), ww)
					}
					sums, _ := AggrGrouped(AggrSum, qty.View(p[0], p[1]), g)
					packedKeys, packedSums = append(packedKeys, g.Keys), append(packedSums, sums)
				}
				pk, _ := PackColumns(packedKeys)
				ps, _ := PackColumns(packedSums)
				for _, f := range []AggrFunc{AggrSum, AggrCount, AggrMin, AggrMax} {
					wantKeys, wantAggs, ww := refGroupMerge(f, pk, ps)
					gk, ga, gw := GroupMerge(f, pk, ps)
					if !slices.Equal(gk.Values(), wantKeys) || !slices.Equal(ga.Values(), wantAggs) || gw != ww || gk.Dict() != keys.Dict() {
						t.Fatalf("sf=%g GroupMerge(%s, %s) k=%d: %d groups work %+v, want %d groups work %+v",
							sf, f, name, k, gk.Len(), gw, len(wantKeys), ww)
					}
				}
			}
		}
	}
	for _, f := range []string{"direct", "bitmap", "probing"} {
		if forms[f] == 0 {
			t.Errorf("no inner took the %s form: %v", f, forms)
		}
	}
	t.Logf("inners per index form: %v", forms)
}
