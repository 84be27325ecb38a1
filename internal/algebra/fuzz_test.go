package algebra

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/storage"
)

// FuzzSelectKernels is the differential fuzz for the rewritten predicates:
// Range.Matches is the one scalar definition, and SelectInto,
// SelectWithCandsInto and FetchInto must agree with the naive loop over it
// value for value — for any Range (sentinels, exclusive bounds at the int64
// edges, lo > hi), any view offset (Seq() != 0), any candidate list
// (ascending, shuffled, overshooting both view boundaries, or one of
// FetchShapes) and any state of the destination buffer (nil, too small,
// recycled with stale contents). Both row-id kernels' Work must classify the
// kept oids' order as the reference does.
func FuzzSelectKernels(f *testing.F) {
	for i, r := range []Range{
		FullRange(), Eq(3), Between(2, 5), HalfOpen(2, 5), LessThan(3), AtMost(3), GreaterThan(3), AtLeast(3),
		Between(5, 2),                              // lo > hi
		{Lo: 4, Hi: 5},                             // exclusive both sides: empty
		{Lo: math.MaxInt64, Hi: NoHigh},            // v > MaxInt64
		{Lo: NoLow, Hi: math.MinInt64},             // v < MinInt64
		{Lo: math.MinInt64, Hi: math.MaxInt64},     // exclusive at both int64 edges
		Between(math.MinInt64, math.MaxInt64),      // span overflows int64
		{Lo: NoLow, Hi: NoHigh, LoIncl: true},      // sentinels ignore inclusivity
		{Lo: NoHigh, Hi: NoLow, LoIncl: true},      // sentinels on the wrong sides
		{Lo: math.MaxInt64 - 1, Hi: math.MaxInt64}, // one value below the edge, open
		{Lo: math.MinInt64, Hi: math.MinInt64 + 1}, // one value above the edge, open
		AtLeast(math.MaxInt64), AtMost(math.MinInt64),
	} {
		f.Add(r.Lo, r.Hi, r.LoIncl, r.HiIncl, int64(i), uint16(17*i), uint8(i), uint8(i/3))
	}
	// A candMode of 128 or more takes one of FetchShapes' lists, every exit of
	// the kernels' prefix and tail loops; seed 2552 draws an empty view.
	for i := range FetchShapes(0, 0) {
		f.Add(int64(10), int64(50), true, false, int64(i), uint16(5*i), uint8(i), uint8(128+i))
		f.Add(int64(10), int64(50), true, false, int64(2552), uint16(5*i), uint8(i), uint8(128+i))
	}
	f.Fuzz(func(t *testing.T, lo, hi int64, loIncl, hiIncl bool, seed int64, offset uint16, dstMode, candMode uint8) {
		pred := Range{Lo: lo, Hi: hi, LoIncl: loIncl, HiIncl: hiIncl}
		r := rand.New(rand.NewSource(seed))

		// Values cluster on the predicate's bounds and the int64 edges,
		// where an off-by-one or a wrapped subtraction would show.
		anchors := []int64{lo, hi, NoLow, NoHigh, math.MinInt64, math.MaxInt64, 0, r.Int63()}
		off, n := int(offset%700), r.Intn(3000)
		base := make([]int64, off+n+r.Intn(8))
		for i := range base {
			base[i] = anchors[r.Intn(len(anchors))] + int64(r.Intn(5)-2)
		}
		view := storage.NewIntColumn("v", base).View(off, off+n)
		vals, seq := view.Values(), view.Seq()

		// dst returns the destination under test; stale contents must never
		// surface and a short buffer must grow, not truncate.
		dst := func() []int64 {
			switch dstMode % 4 {
			case 0:
				return nil
			case 1:
				return make([]int64, 0, 1)
			case 2:
				stale := make([]int64, n+1000)
				for i := range stale {
					stale[i] = -7
				}
				return stale[:r.Intn(len(stale))]
			default:
				return make([]int64, r.Intn(4), r.Intn(n+2)+4)
			}
		}

		var want []int64
		for i, v := range vals {
			if pred.Matches(v) {
				want = append(want, seq+int64(i))
			}
		}
		got, w := SelectInto(dst(), view, pred)
		if !slices.Equal(got, want) || w.TuplesOut != int64(len(want)) || w.TuplesIn != int64(n) {
			t.Fatalf("SelectInto(%+v) over view [%d,%d) = %v (work %+v), want %v", pred, seq, view.EndSeq(), got, w, want)
		}

		// Candidates: every oid from below the view to above it with
		// seed-chosen gaps and repeats; optionally shuffled.
		var cands []int64
		for oid := seq - int64(r.Intn(6)); oid < view.EndSeq()+int64(r.Intn(6)); oid += int64(r.Intn(3)) {
			cands = append(cands, oid)
			if len(cands) > 4*n+16 {
				break
			}
		}
		switch {
		case candMode >= 128:
			shapes := FetchShapes(seq, view.EndSeq())
			cands = shapes[int(candMode-128)%len(shapes)].Oids
		case candMode%3 == 1:
			r.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		case candMode%3 == 2: // in-view candidates only: nothing to drop
			in := cands[:0]
			for _, oid := range cands {
				if oid >= seq && oid < view.EndSeq() {
					in = append(in, oid)
				}
			}
			cands = in
		}
		var wantOids, wantVals, kept []int64
		wantDropped := 0
		for _, oid := range cands {
			if oid < seq || oid >= view.EndSeq() {
				wantDropped++
				continue
			}
			kept = append(kept, oid)
			wantVals = append(wantVals, vals[oid-seq])
			if pred.Matches(vals[oid-seq]) {
				wantOids = append(wantOids, oid)
			}
		}
		nk, nm := int64(len(kept)), int64(len(wantOids))
		wantW := Work{
			BytesSeqRead: int64(len(cands))*8 + nk*8, BytesWritten: nm * 8, TuplesIn: int64(len(cands)),
			TuplesOut: nm, FootprintBytes: view.Bytes(), MemClaimBytes: nm * 8,
		}
		if !slices.IsSorted(kept) {
			wantW.BytesSeqRead, wantW.BytesRandRead = int64(len(cands))*8, nk*8
		}
		gotOids, w, dropped := SelectWithCandsInto(dst(), view, pred, cands)
		if !slices.Equal(gotOids, wantOids) || dropped != wantDropped || w != wantW {
			t.Fatalf("SelectWithCandsInto(%+v, %v) over view [%d,%d) = %v dropped %d work %+v, want %v dropped %d work %+v",
				pred, cands, seq, view.EndSeq(), gotOids, dropped, w, wantOids, wantDropped, wantW)
		}
		// The fetch writes into a window sized to the kept oids; the slots
		// past it belong to a sibling and must keep their contents.
		buf := make([]int64, len(wantVals)+8)
		for i := range buf {
			buf[i] = -7
		}
		k, w, dropped := FetchInto(buf[:len(wantVals)], cands, view)
		wantW = Work{
			BytesSeqRead: int64(len(cands)) * 8, BytesWritten: nk * 8, TuplesIn: int64(len(cands)),
			TuplesOut: nk, FootprintBytes: view.Bytes(), MemClaimBytes: nk * 8,
		}
		if !slices.IsSorted(kept) {
			wantW.BytesRandRead = nk * 8
		}
		if !slices.Equal(buf[:k], wantVals) || dropped != wantDropped || w != wantW || slices.ContainsFunc(buf[len(wantVals):], func(v int64) bool { return v != -7 }) {
			t.Fatalf("FetchInto(%v) over view [%d,%d) = %v dropped %d work %+v (window tail %v), want %v dropped %d work %+v",
				cands, seq, view.EndSeq(), buf[:k], dropped, w, buf[len(wantVals):], wantVals, wantDropped, wantW)
		}
	})
}
