package algebra

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/storage"
	"repro/internal/vec"
)

func TestFetchTupleReconstruction(t *testing.T) {
	// The Figure 10 example: row ids 2,4,5,7 probed into a column whose
	// values at those oids are 12, 11, 20, 13.
	target := storage.NewIntColumn("rt", []int64{0, 0, 12, 0, 11, 20, 0, 13})
	out, w, dropped := fetch([]int64{2, 4, 5, 7}, target)
	if dropped != 0 {
		t.Fatalf("dropped = %d", dropped)
	}
	want := []int64{12, 11, 20, 13}
	for i, x := range want {
		if out.Data().At(i) != x {
			t.Fatalf("out[%d] = %d, want %d", i, out.Data().At(i), x)
		}
	}
	if out.Seq() != 0 {
		t.Fatal("fetched intermediate must have a fresh zero-based head")
	}
	if w.TuplesOut != 4 {
		t.Fatalf("work = %+v", w)
	}
}

func TestFetchAlignsMisalignedBoundaries(t *testing.T) {
	// Figure 10's misalignment: LT holds row id 8 but RH covers [1,8).
	target := storage.NewIntColumn("rt", make([]int64, 9)).View(1, 8)
	_, _, dropped := fetch([]int64{2, 4, 5, 7, 8}, target)
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (row id 8 outside [1,8))", dropped)
	}
}

// FetchShape is an oid list over a view and the length of its in-view,
// non-descending prefix: where FetchInto's gather and SelectWithCandsInto's
// compaction hand the list to the tail walk. The shapes reach every exit of
// both kernels — a prefix ending at the list's end, at an out-of-view oid or
// at a descent (at the first, a middle or the last kept oid), and a tail that
// drops, keeps in order and keeps descending oids. TestKernelsMatchReference
// and FuzzSelectKernels run them against the reference too.
type FetchShape struct {
	Name   string
	Oids   []int64
	Prefix int
}

// FetchShapes returns the shapes over the view [seq, end). Prefix is right
// for a view of at least six oids.
func FetchShapes(seq, end int64) []FetchShape {
	mid := seq + (end-seq)/2
	return []FetchShape{
		{"empty", nil, 0},
		{"inside", []int64{seq, seq + 1, mid, end - 1}, 4},
		{"duplicates inside", []int64{seq, seq, mid, mid, end - 1, end - 1}, 6},
		{"below", []int64{seq - 9, seq - 3, seq - 1}, 0},
		{"above", []int64{end, end + 2, end + 7}, 0},
		{"clipped above", []int64{seq, mid, end - 1, end, end + 3}, 3},
		{"straddling", []int64{seq - 2, seq - 1, seq, mid, end - 1, end, end + 3}, 0},
		{"duplicates at both boundaries", []int64{seq - 1, seq - 1, seq, seq, mid, end - 1, end - 1, end, end}, 0},
		{"shuffled", []int64{mid, seq, end - 1, seq + 1}, 1},
		{"descent at the first kept oid", []int64{seq + 1, seq, mid, end - 1, end}, 1},
		{"descent at a middle kept oid", []int64{seq, mid, seq + 1, end - 1, end}, 2},
		{"descent at the last kept oid", []int64{seq, seq + 1, mid, mid - 1, end}, 3},
		{"descent after dropped oids", []int64{seq - 1, seq + 1, seq, mid, end - 1, end}, 0},
		{"drops interleaved with ascending kept oids", []int64{seq, end, seq + 1, seq - 1, mid}, 1},
		{"descent through a dropped oid only", []int64{seq + 1, seq - 1, seq + 2}, 1},
		{"in-view oid before dropped ones", []int64{mid, seq - 3, seq - 1, seq, end - 1}, 1},
		{"in-view oid after dropped ones", []int64{seq, seq + 1, end, end + 2, mid}, 2},
		{"ascending after a dropped head", []int64{seq - 4, seq - 2, seq - 1, seq, seq + 1, mid, end - 1}, 0},
	}
}

// A selection vector must be read by the out-of-line prefix loops; a list
// that left them early would keep every result right and lose the speed, so
// where each kernel's prefix ends is pinned here, shape by shape, and so is
// that neither kernel allocates beyond its output's growth.
func TestOidPrefixExits(t *testing.T) {
	vals := make([]int64, 40)
	for i := range vals {
		vals[i] = int64(100 + i)
	}
	target := storage.NewIntColumn("rt", vals).View(10, 20)
	lo, span, _ := AtLeast(0).closed()
	for _, s := range FetchShapes(10, 20) {
		if n := gatherPrefix(make([]int64, len(s.Oids)), s.Oids, target.Values(), target.Seq()); n != s.Prefix {
			t.Errorf("%s %v: gather prefix %d, want %d", s.Name, s.Oids, n, s.Prefix)
		}
		if _, n := compactCands(make([]int64, len(s.Oids)), s.Oids, target.Values(), target.Seq(), target.Seq(), lo, span); n != s.Prefix {
			t.Errorf("%s %v: compaction prefix %d, want %d", s.Name, s.Oids, n, s.Prefix)
		}
		dst := make([]int64, len(s.Oids))
		out := make([]int64, 0, len(s.Oids)+1)
		if a := testing.AllocsPerRun(10, func() {
			FetchInto(dst, s.Oids, target)
			SelectWithCandsInto(out, target, FullRange(), s.Oids)
		}); a != 0 {
			t.Errorf("%s: %v allocations per run, want 0", s.Name, a)
		}
	}

	// A kept list longer than dst ends the prefix at len(dst) and panics in
	// the tail; dst's length, not its capacity, bounds the writes, because
	// past a partition clone's window lies a sibling clone's output.
	buf := []int64{-7, -7, -7, -7, -7, -7, -7, -7}
	if n := gatherPrefix(buf[:3], []int64{10, 11, 15, 19}, target.Values(), target.Seq()); n != 3 {
		t.Fatalf("a 4-oid prefix into a 3-slot window: prefix %d, want 3", n)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("FetchInto of 4 kept oids into a 3-slot window did not panic")
			}
		}()
		FetchInto(buf[:3], []int64{10, 11, 15, 19}, target)
	}()
	if !slices.Equal(buf, []int64{110, 111, 115, -7, -7, -7, -7, -7}) {
		t.Fatalf("a 4-oid list into a 3-slot window left the buffer %v", buf)
	}
}

// Property: one oid list aligned against the adjacent views [0,c) and
// [c,size) keeps every in-range oid in exactly one of them, in list order (no
// repetition, no omission — the two failure modes §2.3 warns about), and the
// two dropped counts add up, in both kernels that align.
func TestKernelsAlignPartitionProperty(t *testing.T) {
	f := func(raw []uint16, cut uint16, n uint16) bool {
		size := int64(n)%200 + 10
		c := int64(cut) % size
		vals := make([]int64, size)
		for i := range vals {
			vals[i] = int64(i)
		}
		col := storage.NewIntColumn("t", vals)
		var oids, wantL, wantR []int64
		for _, r := range raw {
			o := int64(r)%(size+6) - 3 // some outside [0,size)
			oids = append(oids, o)
			switch {
			case o >= 0 && o < c:
				wantL = append(wantL, o)
			case o >= c && o < size:
				wantR = append(wantR, o)
			}
		}
		dropped := 2*len(oids) - len(wantL) - len(wantR)
		left, right := make([]int64, len(oids)), make([]int64, len(oids))
		nl, _, dl := FetchInto(left, oids, col.View(0, int(c)))
		nr, _, dr := FetchInto(right, oids, col.View(int(c), int(size)))
		sl, _, sdl := SelectWithCandsInto(nil, col.View(0, int(c)), FullRange(), oids)
		sr, _, sdr := SelectWithCandsInto(nil, col.View(int(c), int(size)), FullRange(), oids)
		return slices.Equal(left[:nl], wantL) && slices.Equal(right[:nr], wantR) && dl+dr == dropped &&
			slices.Equal(sl, wantL) && slices.Equal(sr, wantR) && sdl+sdr == dropped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFetchDictColumn(t *testing.T) {
	d := vec.NewDict()
	codes := []int64{d.Code("x"), d.Code("y"), d.Code("z")}
	target := storage.NewColumn("s", 0, vec.NewDictCoded(codes, d))
	out, _, _ := fetch([]int64{2, 0}, target)
	if out.Data().StringAt(0) != "z" || out.Data().StringAt(1) != "x" {
		t.Fatalf("fetched strings: %q %q", out.Data().StringAt(0), out.Data().StringAt(1))
	}
}

func TestFetchPositions(t *testing.T) {
	c := storage.NewIntColumn("v", []int64{10, 20, 30})
	out, _ := fetchPositions([]int64{2, 2, 0}, c)
	if out.Data().At(0) != 30 || out.Data().At(1) != 30 || out.Data().At(2) != 10 {
		t.Fatalf("FetchPositions = %v", out.Values())
	}
}

// Property: fetch distributes over oid partitioning — fetching each oid
// partition then packing equals fetching the packed oids.
func TestFetchPartitionEquivalence(t *testing.T) {
	f := func(raw []uint8, cutRaw uint8) bool {
		target := storage.NewIntColumn("t", []int64{7, 13, 29, 31, 41, 53, 61, 71})
		oids := make([]int64, len(raw))
		for i, r := range raw {
			oids[i] = int64(r % 8)
		}
		serial, _, _ := fetch(oids, target)
		cut := 0
		if len(oids) > 0 {
			cut = int(cutRaw) % (len(oids) + 1)
		}
		p1, _, _ := fetch(oids[:cut], target)
		p2, _, _ := fetch(oids[cut:], target)
		packed, _ := PackColumns([]*storage.Column{p1, p2})
		return vec.Equal(packed.Data(), serial.Data())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortStableWithPermutation(t *testing.T) {
	c := storage.NewIntColumn("v", []int64{3, 1, 3, 2}).View(0, 4)
	sorted, perm, w := Sort(c, false)
	wantVals := []int64{1, 2, 3, 3}
	wantPerm := []int64{1, 3, 0, 2} // stable: first 3 (oid 0) before second (oid 2)
	for i := range wantVals {
		if sorted.Data().At(i) != wantVals[i] || perm[i] != wantPerm[i] {
			t.Fatalf("sorted=%v perm=%v", sorted.Values(), perm)
		}
	}
	if w.CompareOps == 0 {
		t.Fatal("sort reported zero compare work")
	}
	desc, _, _ := Sort(c, true)
	if desc.Data().At(0) != 3 || desc.Data().At(3) != 1 {
		t.Fatalf("desc sort = %v", desc.Values())
	}
}

// Property: partitioned sort + merge equals serial sort.
func TestSortMergeEquivalence(t *testing.T) {
	f := func(vals []int64, cutRaw uint8) bool {
		c := storage.NewIntColumn("v", vals)
		serial, _, _ := Sort(c, false)
		cut := 0
		if len(vals) > 0 {
			cut = int(cutRaw) % (len(vals) + 1)
		}
		r1, _, _ := Sort(c.View(0, cut), false)
		r2, _, _ := Sort(c.View(cut, len(vals)), false)
		merged, _ := MergeSortedRuns([]*storage.Column{r1, r2}, false)
		if merged.Len() != serial.Len() {
			return false
		}
		for i := 0; i < merged.Len(); i++ {
			if merged.Data().At(i) != serial.Data().At(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeSortedRunsDesc(t *testing.T) {
	r1 := storage.NewIntColumn("a", []int64{9, 5, 1})
	r2 := storage.NewIntColumn("b", []int64{8, 2})
	merged, _ := MergeSortedRuns([]*storage.Column{r1, r2}, true)
	want := []int64{9, 8, 5, 2, 1}
	got := merged.Values()
	if len(got) != len(want) {
		t.Fatalf("merged = %v", got)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] > got[j] }) {
		t.Fatalf("not descending: %v", got)
	}
}

func TestPackColumnsOrderAndWork(t *testing.T) {
	a := storage.NewIntColumn("x", []int64{1, 2})
	b := storage.NewIntColumn("x", []int64{3})
	out, w := PackColumns([]*storage.Column{a, b})
	if out.Len() != 3 || out.Data().At(2) != 3 {
		t.Fatalf("packed = %v", out.Values())
	}
	if out.Seq() != 0 {
		t.Fatal("packed column must have fresh head")
	}
	if w.BytesWritten != 24 {
		t.Fatalf("work = %+v", w)
	}
}

func TestPackScalars(t *testing.T) {
	out, w := PackScalarsOwned("partials", []int64{4, 5})
	if out.Name() != "partials" || out.Seq() != 0 || out.Data().At(0) != 4 || out.Data().At(1) != 5 {
		t.Fatalf("packed scalars = %q seq %d %v", out.Name(), out.Seq(), out.Values())
	}
	if w.TuplesIn != 2 || w.TuplesOut != 2 || w.BytesWritten != 16 {
		t.Fatalf("work = %+v", w)
	}
}

func TestWorkAdd(t *testing.T) {
	var w Work
	w.Add(Work{BytesSeqRead: 10, FootprintBytes: 100, TuplesIn: 1})
	w.Add(Work{BytesSeqRead: 5, FootprintBytes: 50, TuplesOut: 2, MemClaimBytes: 7})
	if w.BytesSeqRead != 15 || w.TuplesIn != 1 || w.TuplesOut != 2 || w.MemClaimBytes != 7 {
		t.Fatalf("accumulated = %+v", w)
	}
	if w.FootprintBytes != 100 {
		t.Fatalf("footprint should take max, got %d", w.FootprintBytes)
	}
}
