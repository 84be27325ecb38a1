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

// FetchShape is an oid list over a view and whether FetchInto's one-pass
// path takes it. The shapes reach every exit of fetchAscending;
// TestKernelsMatchReference and FuzzSelectKernels run them against the
// reference too.
type FetchShape struct {
	Name  string
	Oids  []int64
	Taken bool
}

// FetchShapes returns the shapes over the view [seq, end). Taken is right
// for a view of at least six oids.
func FetchShapes(seq, end int64) []FetchShape {
	mid := seq + (end-seq)/2
	return []FetchShape{
		{"empty", nil, true},
		{"below", []int64{seq - 9, seq - 3, seq - 1}, true},
		{"above", []int64{end, end + 2, end + 7}, true},
		{"straddling", []int64{seq - 2, seq - 1, seq, mid, end - 1, end, end + 3}, true},
		{"inside", []int64{seq, seq + 1, mid, end - 1}, true},
		{"duplicates at both boundaries", []int64{seq - 1, seq - 1, seq, seq, mid, end - 1, end - 1, end, end}, true},
		{"shuffled", []int64{mid, seq, end - 1, seq + 1}, false},
		{"descent at the first kept oid", []int64{seq - 1, seq + 1, seq, mid, end - 1, end}, false},
		{"descent at a middle kept oid", []int64{seq - 1, seq, mid, seq + 1, end - 1, end}, false},
		{"descent at the last kept oid", []int64{seq - 1, seq, seq + 1, mid, mid - 1, end}, false},
		{"in-view oid in the dropped prefix", []int64{mid, seq - 3, seq - 1, seq, end - 1}, false},
		{"in-view oid in the dropped suffix", []int64{seq, seq + 1, end, end + 2, mid}, false},
	}
}

// An ascending list must be fetched in one pass; a silent fall back to
// AlignOids and a second pass would keep every result right and lose the
// speed, so the path taken is pinned here, exit by exit.
func TestFetchAscendingExits(t *testing.T) {
	vals := make([]int64, 40)
	for i := range vals {
		vals[i] = int64(100 + i)
	}
	target := storage.NewIntColumn("rt", vals).View(10, 20)
	for _, s := range FetchShapes(10, 20) {
		if _, ok := fetchAscending(make([]int64, len(s.Oids)), s.Oids, target); ok != s.Taken {
			t.Errorf("%s %v: one-pass path taken = %v, want %v", s.Name, s.Oids, ok, s.Taken)
		}
	}

	// A kept run longer than dst is refused by dst's length, not its
	// capacity: past the window lies a sibling clone's output.
	buf := []int64{-7, -7, -7, -7, -7, -7, -7, -7}
	if _, ok := fetchAscending(buf[:3], []int64{10, 11, 15, 19}, target); ok || !slices.Equal(buf[3:], []int64{-7, -7, -7, -7, -7}) {
		t.Fatalf("a 4-oid run into a 3-slot window: taken = %v, buffer %v", ok, buf)
	}

	// The searches confine the run for any list; gatherRun's in-view test
	// still keeps a run that is not confined from reading past the view.
	for _, run := range [][]int64{{9}, {10, 20}, {19, 35}} {
		if gatherRun(make([]int64, len(run)), run, target.Values(), target.Seq()) {
			t.Errorf("gatherRun accepted %v over the view [10,20)", run)
		}
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
