package vec

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNewInt64Basics(t *testing.T) {
	v := NewInt64([]int64{3, 1, 4, 1, 5})
	if v.Len() != 5 {
		t.Fatalf("Len = %d, want 5", v.Len())
	}
	if v.At(2) != 4 {
		t.Fatalf("At(2) = %d, want 4", v.At(2))
	}
	if v.Bytes() != 40 {
		t.Fatalf("Bytes = %d, want 40", v.Bytes())
	}
	if v.IsString() {
		t.Fatal("int64 vector reported as string")
	}
	if v.StringAt(0) != "3" {
		t.Fatalf("StringAt(0) = %q, want \"3\"", v.StringAt(0))
	}
}

func TestSliceIsZeroCopy(t *testing.T) {
	backing := []int64{0, 10, 20, 30, 40}
	v := NewInt64(backing)
	s := v.Slice(1, 4)
	if s.Len() != 3 || s.At(0) != 10 || s.At(2) != 30 {
		t.Fatalf("slice contents wrong: %v", s.Values())
	}
	// Shares backing storage: mutating the original array is visible, which
	// proves no copy happened (vectors are treated as immutable elsewhere).
	backing[1] = 99
	if s.At(0) != 99 {
		t.Fatal("Slice copied data; expected zero-copy view")
	}
}

func TestSlicePanicsOutOfRange(t *testing.T) {
	v := NewInt64([]int64{1, 2, 3})
	for _, bounds := range [][2]int{{-1, 2}, {0, 4}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slice(%d,%d) did not panic", bounds[0], bounds[1])
				}
			}()
			v.Slice(bounds[0], bounds[1])
		}()
	}
}

func TestSliceEmpty(t *testing.T) {
	v := NewInt64([]int64{1, 2, 3})
	s := v.Slice(2, 2)
	if s.Len() != 0 {
		t.Fatalf("empty slice has length %d", s.Len())
	}
}

func TestConcatOrderPreserving(t *testing.T) {
	a := NewInt64([]int64{1, 2})
	b := NewInt64([]int64{3})
	c := NewInt64([]int64{})
	d := NewInt64([]int64{4, 5})
	got := Concat(a, b, c, d)
	want := []int64{1, 2, 3, 4, 5}
	if got.Len() != len(want) {
		t.Fatalf("Concat length = %d, want %d", got.Len(), len(want))
	}
	for i, w := range want {
		if got.At(i) != w {
			t.Fatalf("Concat[%d] = %d, want %d", i, got.At(i), w)
		}
	}
}

// Property: concatenating an arbitrary partitioning of a vector reproduces
// the vector — the ordering invariant the pack operator relies on (§2.3).
func TestConcatOfPartitionsIsIdentity(t *testing.T) {
	f := func(vals []int64, seed int64) bool {
		v := NewInt64(vals)
		rng := rand.New(rand.NewSource(seed))
		// Cut [0,len) into random contiguous pieces.
		var cuts []int
		prev := 0
		for prev < len(vals) {
			step := 1 + rng.Intn(len(vals)-prev)
			prev += step
			cuts = append(cuts, prev)
		}
		var parts []*Vector
		lo := 0
		for _, hi := range cuts {
			parts = append(parts, v.Slice(lo, hi))
			lo = hi
		}
		return Equal(Concat(parts...), v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcatMixedDictionariesPanics(t *testing.T) {
	d1, d2 := NewDict(), NewDict()
	a := NewDictCoded([]int64{d1.Code("x")}, d1)
	b := NewDictCoded([]int64{d2.Code("y")}, d2)
	defer func() {
		if recover() == nil {
			t.Fatal("Concat over mixed dictionaries did not panic")
		}
	}()
	Concat(a, b)
}

func TestEqual(t *testing.T) {
	if !Equal(NewInt64([]int64{1, 2}), NewInt64([]int64{1, 2})) {
		t.Fatal("equal vectors reported unequal")
	}
	if Equal(NewInt64([]int64{1, 2}), NewInt64([]int64{1, 3})) {
		t.Fatal("unequal values reported equal")
	}
	if Equal(NewInt64([]int64{1}), NewInt64([]int64{1, 1})) {
		t.Fatal("unequal lengths reported equal")
	}
	d1, d2 := NewDict(), NewDict()
	d1.Code("pad") // force different codes for the same strings
	a := NewDictCoded([]int64{d1.Code("a"), d1.Code("b")}, d1)
	b := NewDictCoded([]int64{d2.Code("a"), d2.Code("b")}, d2)
	if !Equal(a, b) {
		t.Fatal("logically equal string vectors reported unequal across dictionaries")
	}
	if Equal(a, NewInt64([]int64{1, 2})) {
		t.Fatal("string vector equal to int vector")
	}
}

func TestDictCodeLookupValue(t *testing.T) {
	d := NewDict()
	c1 := d.Code("PROMO BRUSHED STEEL")
	c2 := d.Code("STANDARD POLISHED TIN")
	if c1 == c2 {
		t.Fatal("distinct strings received identical codes")
	}
	if again := d.Code("PROMO BRUSHED STEEL"); again != c1 {
		t.Fatalf("re-interning returned %d, want %d", again, c1)
	}
	if got, ok := d.Lookup("STANDARD POLISHED TIN"); !ok || got != c2 {
		t.Fatalf("Lookup = (%d,%v), want (%d,true)", got, ok, c2)
	}
	if _, ok := d.Lookup("missing"); ok {
		t.Fatal("Lookup of missing value succeeded")
	}
	if d.Value(c1) != "PROMO BRUSHED STEEL" {
		t.Fatalf("Value(c1) = %q", d.Value(c1))
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
}

func TestDictMatch(t *testing.T) {
	d := NewDict()
	promo := d.Code("PROMO BRUSHED STEEL")
	std := d.Code("STANDARD POLISHED TIN")
	promo2 := d.Code("PROMO ANODIZED COPPER")

	sub := d.MatchSubstring("BRUSHED")
	if !sub[promo] || sub[std] || sub[promo2] {
		t.Fatalf("MatchSubstring = %v", sub)
	}
	pre := d.MatchPrefix("PROMO")
	if !pre[promo] || !pre[promo2] || pre[std] {
		t.Fatalf("MatchPrefix = %v", pre)
	}
}

// The LIKE memo: a repeated question is answered from the same bitmap, the two
// match kinds of one pattern do not collide, growing the dictionary
// invalidates (a bitmap must cover every assigned code), the memo stays
// bounded, and concurrent askers (partition clones, shards) are safe.
func TestDictMatchMemo(t *testing.T) {
	d := NewDict()
	ab, ba := d.Code("ab"), d.Code("ba")
	sub := d.MatchSubstring("a")
	if again := d.MatchSubstring("a"); &again[0] != &sub[0] {
		t.Fatal("repeated MatchSubstring recomputed the bitmap")
	}
	pre := d.MatchPrefix("a")
	if !sub[ab] || !sub[ba] || !pre[ab] || pre[ba] {
		t.Fatalf("substring %v / prefix %v bitmaps collided", sub, pre)
	}

	ca := d.Code("ca")
	grown := d.MatchSubstring("a")
	if len(grown) != d.Len() || !grown[ca] || len(sub) != 2 {
		t.Fatalf("bitmap after growth = %v (old %v), want one covering %d codes", grown, sub, d.Len())
	}

	for i := 0; i < 4*maxMatchMemo; i++ {
		d.MatchSubstring(fmt.Sprint(i))
	}
	if len(d.matches) > maxMatchMemo {
		t.Fatalf("memo holds %d bitmaps, bound is %d", len(d.matches), maxMatchMemo)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if m := d.MatchPrefix("b"); m[ab] || !m[ba] || m[ca] {
					t.Errorf("concurrent MatchPrefix = %v", m)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestDictCodedVectorStrings(t *testing.T) {
	d := NewDict()
	codes := []int64{d.Code("a"), d.Code("b"), d.Code("a")}
	v := NewDictCoded(codes, d)
	if !v.IsString() {
		t.Fatal("dict-coded vector not recognised as string")
	}
	if v.StringAt(2) != "a" {
		t.Fatalf("StringAt(2) = %q", v.StringAt(2))
	}
	if v.Dict() != d {
		t.Fatal("Dict() did not return the bound dictionary")
	}
	s := v.Slice(1, 3)
	if s.Dict() != d {
		t.Fatal("slice lost its dictionary")
	}
}

func TestNewDictCodedNilDictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDictCoded(nil) did not panic")
		}
	}()
	NewDictCoded([]int64{0}, nil)
}

// TestDictExtendViews: Extend never modifies its receiver — it returns the
// receiver when nothing is new, a longer view of the same lineage when the
// receiver is the longest, and a fork when a sibling got there first; codes a
// view assigned keep their meaning in every view that descends from it.
func TestDictExtendViews(t *testing.T) {
	root := NewDict()
	a, b := root.Code("a"), root.Code("b")
	codes := make([]int64, 2)
	if same := root.Extend(codes, []string{"b", "a"}); same != root || codes[0] != b || codes[1] != a {
		t.Fatalf("Extend without new strings: view %p (root %p), codes %v", same, root, codes)
	}
	long := root.Extend(codes, []string{"a", "c"})
	if long == root || root.Len() != 2 || long.Len() != 3 || codes[0] != a || long.Value(codes[1]) != "c" {
		t.Fatalf("Extend with a new string: root %d values, long %d, codes %v", root.Len(), long.Len(), codes)
	}
	if _, ok := root.Lookup("c"); ok {
		t.Fatal("the shorter view finds the longer view's string")
	}
	// A second child of root: "c" exists in the lineage, but behind root's
	// length and under a code the sibling owns — the fork re-assigns it.
	fork := root.Extend(codes, []string{"d", "c"})
	if fork.Len() != 4 || fork.Value(codes[0]) != "d" || fork.Value(codes[1]) != "c" || fork.Value(a) != "a" || fork.Value(b) != "b" {
		t.Fatalf("fork: %d values, codes %v", fork.Len(), codes)
	}
	if long.Len() != 3 || long.Value(2) != "c" || root.Len() != 2 {
		t.Fatal("the fork modified the views it forked from")
	}
	// The fork is its own lineage and grows in place from here.
	if next := fork.Extend(codes[:1], []string{"e"}); next.Len() != 5 || fork.Len() != 4 || long.Len() != 3 {
		t.Fatal("extending the fork reached another view")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Code on a view its lineage has outgrown did not panic")
		}
	}()
	root.Code("z")
}

// TestExtendCopiesWhatItInterns: Extend keeps a copy of every string it
// interns, so a caller may hand it strings cut from one larger buffer — as the
// /admin/append decoder does with each "strs" array — without the dictionary
// pinning the buffer. Values the view already holds keep their codes. The
// first Extend grows root's lineage in place, the second forks it.
func TestExtendCopiesWhatItInterns(t *testing.T) {
	root := NewDict()
	red, green := root.Code("red"), root.Code("green")
	src := "red,blue,green,cyan,blue,red"
	strs := strings.Split(src, ",") // views of src
	base := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	for _, path := range []string{"in place", "fork"} {
		codes := make([]int64, len(strs))
		d := root.Extend(codes, strs)
		if codes[0] != red || codes[2] != green || codes[5] != red || codes[1] != codes[4] || codes[1] == codes[3] || d.Len() != 4 {
			t.Fatalf("%s: codes %v, %d values (red %d, green %d)", path, codes, d.Len(), red, green)
		}
		for c := root.Len(); c < d.Len(); c++ {
			v := d.Value(int64(c))
			if p := uintptr(unsafe.Pointer(unsafe.StringData(v))); p >= base && p < base+uintptr(len(src)) {
				t.Errorf("%s: code %d (%q) shares the caller's memory", path, c, v)
			}
		}
	}
}
