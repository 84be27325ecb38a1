package algebra

import (
	"testing"

	"repro/internal/storage"
	"repro/internal/vec"
)

// The oid scan of a fetch must be charged exactly once: ascending row ids
// drive one fused forward skip-scan (sequential, already covered by the oid
// scan), shuffled ids pay random access per fetched value. The seed
// double-counted the ascending case.
func TestFetchWorkAccounting(t *testing.T) {
	target := storage.NewIntColumn("rt", []int64{10, 11, 12, 13, 14, 15, 16, 17})

	dst := make([]int64, 4)
	_, asc, _ := FetchInto(dst, []int64{1, 3, 4, 7}, target)
	if asc.BytesSeqRead != 4*8 {
		t.Fatalf("ascending fetch BytesSeqRead = %d, want %d (oid scan counted once)", asc.BytesSeqRead, 4*8)
	}
	if asc.BytesRandRead != 0 {
		t.Fatalf("ascending fetch BytesRandRead = %d, want 0", asc.BytesRandRead)
	}

	_, shuf, _ := FetchInto(dst, []int64{7, 1, 4, 3}, target)
	if shuf.BytesSeqRead != 4*8 {
		t.Fatalf("shuffled fetch BytesSeqRead = %d, want %d", shuf.BytesSeqRead, 4*8)
	}
	if shuf.BytesRandRead != 4*8 {
		t.Fatalf("shuffled fetch BytesRandRead = %d, want %d", shuf.BytesRandRead, 4*8)
	}
}

// A pack served as a view over the shared clone buffer must be bit-identical
// to the copying pack of the clones' views, with a Work record showing zero
// data movement.
func TestPackColumnsViewMatchesCopy(t *testing.T) {
	src := storage.NewIntColumn("x", []int64{5, 6, 7, 8, 9})
	oids := []int64{0, 1, 2, 3, 4}

	bld := vec.NewBuilder(len(oids))
	parts := make([]*storage.Column, 2)
	cuts := [][2]int{{0, 2}, {2, 5}}
	var tuplesIn int64
	for i, c := range cuts {
		lo, hi := c[0], c[1]
		n, _, _ := FetchInto(bld.WriteRange(lo, hi), oids[lo:hi], src)
		if n != hi-lo {
			t.Fatalf("clone %d wrote %d, want %d", i, n, hi-lo)
		}
		parts[i] = storage.NewBuilderColumn("x", int64(lo), bld, lo, hi)
		tuplesIn += int64(n)
	}

	want, copyWork := PackColumns(parts)
	got, viewWork := PackColumnsView(parts[0], bld.Publish(), tuplesIn)
	if !vec.Equal(got.Data(), want.Data()) {
		t.Fatalf("view pack %v != copy pack %v", got.Values(), want.Values())
	}
	if got.Seq() != 0 || got.Name() != want.Name() {
		t.Fatalf("view pack head/name: seq=%d name=%q", got.Seq(), got.Name())
	}
	if viewWork.BytesSeqRead != 0 || viewWork.BytesWritten != 0 || viewWork.MemClaimBytes != 0 {
		t.Fatalf("view pack moved data: %+v", viewWork)
	}
	if viewWork.TuplesIn != copyWork.TuplesIn || viewWork.TuplesOut != copyWork.TuplesOut {
		t.Fatalf("view pack tuples %+v != copy pack tuples %+v", viewWork, copyWork)
	}
	// The view must alias the shared buffer the clones wrote, not copy it.
	if &got.Values()[0] != &parts[0].Values()[0] {
		t.Fatal("view pack copied the shared buffer")
	}
}

// Exercises buffer reuse: SelectInto and PackOidsInto over recycled buffers
// must produce the same outputs and Work as over a nil destination.
func TestIntoVariantsReuseBuffers(t *testing.T) {
	col := storage.NewIntColumn("v", []int64{3, 1, 4, 1, 5, 9, 2, 6})
	want, wWant := SelectInto(nil, col, AtLeast(4))

	buf := make([]int64, 0, 1) // too small: must grow, not truncate
	got, wGot := SelectInto(buf, col, AtLeast(4))
	if len(got) != len(want) || wGot.TuplesOut != wWant.TuplesOut {
		t.Fatalf("SelectInto = %v (%+v), want %v (%+v)", got, wGot, want, wWant)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SelectInto[%d] = %d, want %d", i, got[i], want[i])
		}
	}

	parts := [][]int64{{1, 2}, {3}, {4, 5, 6}}
	wantP, _ := PackOidsInto(nil, parts)
	gotP, _ := PackOidsInto(make([]int64, 0, 16), parts)
	if len(gotP) != len(wantP) {
		t.Fatalf("PackOidsInto = %v, want %v", gotP, wantP)
	}
	for i := range wantP {
		if gotP[i] != wantP[i] {
			t.Fatalf("PackOidsInto[%d] = %d, want %d", i, gotP[i], wantP[i])
		}
	}
}

// PackScalarsOwned must alias the caller's slice (ownership transfer): the
// executor gathers partials into the slice the seam handed it and nothing
// copies them again.
func TestPackScalarsOwnership(t *testing.T) {
	src := []int64{4, 5}
	owned, _ := PackScalarsOwned("partials", src)
	if &owned.Values()[0] != &src[0] {
		t.Fatal("PackScalarsOwned must take ownership, not copy")
	}
	src[0] = 99
	if owned.At(0) != 99 {
		t.Fatal("PackScalarsOwned column does not alias the transferred slice")
	}
}
