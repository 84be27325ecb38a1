package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/vec"
)

// heapFixture is a one-table catalog (int column "a", string column "s") no
// mutation has touched yet.
func heapFixture(rows int) *Catalog {
	ints, codes, d := make([]int64, rows), make([]int64, rows), vec.NewDict()
	for i := range ints {
		ints[i] = int64(i)
		codes[i] = d.Code(fmt.Sprint("s", i%3))
	}
	tab := NewTable("t")
	tab.MustAddColumn(NewIntColumn("a", ints))
	tab.MustAddColumn(NewColumn("s", 0, vec.NewDictCoded(codes, d)))
	cat := NewCatalog()
	cat.MustAdd(tab)
	return cat
}

func mustAppend(t testing.TB, c *Catalog, ints []int64, strs []string) *Catalog {
	t.Helper()
	next, err := c.AppendRows("t", map[string]ColumnAppend{"a": {Ints: ints}, "s": {Strs: strs}})
	if err != nil {
		t.Fatal(err)
	}
	return next
}

func mustDelete(t testing.TB, c *Catalog, n int) *Catalog {
	t.Helper()
	next, err := c.DeleteTail("t", n)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// tailAddr is the address the row at position row of column a lives at.
func tailAddr(c *Catalog, row int) *int64 {
	return &c.MustTable("t").MustColumn("a").Values()[row]
}

// TestHeapModelRandomTrees: over random trees of appends and deletes — any
// version may be the parent of the next step, so second children, appends
// after deletes and appends that outgrow the heap all occur — every version
// ever made keeps equal to the deep-copied model it was given at birth.
// Nothing reclaims, so nothing may ever be overwritten.
func TestHeapModelRandomTrees(t *testing.T) {
	type version struct {
		cat  *Catalog
		ints []int64
		strs []string
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		root := version{cat: heapFixture(8)}
		for i := 0; i < 8; i++ {
			root.ints, root.strs = append(root.ints, int64(i)), append(root.strs, fmt.Sprint("s", i%3))
		}
		versions := []version{root}
		for step := 0; step < 40; step++ {
			p := versions[rng.Intn(len(versions))]
			var next version
			if len(p.ints) > 1 && rng.Intn(3) == 0 {
				keep := len(p.ints) - 1 - rng.Intn(len(p.ints)-1)
				next = version{mustDelete(t, p.cat, len(p.ints)-keep), slices.Clone(p.ints[:keep]), slices.Clone(p.strs[:keep])}
			} else {
				n := 1 + rng.Intn(6)
				if rng.Intn(25) == 0 {
					n = 2000
				}
				ints, strs := make([]int64, n), make([]string, n)
				for i := range ints {
					ints[i] = rng.Int63()
					strs[i] = fmt.Sprint("s", rng.Intn(3))
					if rng.Intn(4) == 0 {
						strs[i] = fmt.Sprint("new", seed, step, i)
					}
				}
				next = version{mustAppend(t, p.cat, ints, strs), append(slices.Clone(p.ints), ints...), append(slices.Clone(p.strs), strs...)}
			}
			versions = append(versions, next)
			for vi, v := range versions {
				tab := v.cat.MustTable("t")
				a, s := tab.MustColumn("a"), tab.MustColumn("s")
				if tab.Rows() != len(v.ints) || !slices.Equal(a.Values(), v.ints) {
					t.Fatalf("seed %d step %d: version %d's ints changed", seed, step, vi)
				}
				for i, want := range v.strs {
					if got := s.Data().StringAt(i); got != want {
						t.Fatalf("seed %d step %d: version %d s[%d] = %q, want %q", seed, step, vi, i, got, want)
					}
				}
				if len(a.Values()) != cap(a.Values()) || len(s.Values()) != cap(s.Values()) {
					t.Fatalf("seed %d step %d: version %d exposes spare capacity", seed, step, vi)
				}
			}
		}
	}
}

// TestHeapSnapshotReadersUnderWriter: readers scan one snapshot while the
// writer first appends in place behind it — same backing array, the one case
// where a reader and a writer share memory — and then cycles delete /
// append-other-values, each cycle adding a string to the dictionary lineage
// the snapshot's view belongs to. Run under -race.
func TestHeapSnapshotReadersUnderWriter(t *testing.T) {
	snap := mustAppend(t, heapFixture(4000), []int64{1, 2, 3}, []string{"s0", "s1", "tail"})
	a, s := snap.MustTable("t").MustColumn("a"), snap.MustTable("t").MustColumn("s")
	scan := func() (sum int64, matches int) {
		for _, v := range a.Values() {
			sum += v
		}
		member := s.Dict().MatchSubstring("s")
		for _, c := range s.Values() {
			if member[c] {
				matches++
			}
		}
		return sum, matches
	}
	wantSum, wantMatches := scan()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if sum, matches := scan(); sum != wantSum || matches != wantMatches {
					t.Errorf("snapshot scan = (%d, %d), want (%d, %d)", sum, matches, wantSum, wantMatches)
					return
				}
			}
		}()
	}
	cur := mustAppend(t, snap, []int64{7, 8}, []string{"in", "place"})
	if tailAddr(cur, 0) != tailAddr(snap, 0) {
		t.Fatal("the append behind the snapshot was not in place; the test shares no memory")
	}
	for i := 0; i < 300; i++ {
		cur = mustDelete(t, cur, 2)
		cur = mustAppend(t, cur, []int64{int64(-i), int64(i)}, []string{fmt.Sprint("cycle", i), "s2"})
	}
	close(stop)
	wg.Wait()
	if got := cur.MustTable("t").MustColumn("s").Data().StringAt(cur.MustTable("t").Rows() - 2); got != "cycle299" {
		t.Fatalf("writer's last version reads %q, want cycle299", got)
	}
}

// TestReclaimTailContract pins which appends land in place and which copy.
func TestReclaimTailContract(t *testing.T) {
	base := heapFixture(4000)
	v1 := mustAppend(t, base, []int64{1, 2}, []string{"s0", "x"})
	if tailAddr(v1, 0) == tailAddr(base, 0) {
		t.Fatal("the first append to a built table must copy")
	}
	v2 := mustAppend(t, v1, []int64{3, 4}, []string{"y", "s1"})
	if tailAddr(v2, 0) != tailAddr(v1, 0) {
		t.Fatal("an append to the newest version with room must be in place")
	}
	if sib := mustAppend(t, v1, []int64{5, 6}, []string{"s0", "s0"}); tailAddr(sib, 0) == tailAddr(v1, 0) {
		t.Fatal("a second child of one parent must copy")
	} else if got := v2.MustTable("t").MustColumn("a").Values()[4002:]; !slices.Equal(got, []int64{3, 4}) {
		t.Fatalf("the second child overwrote the first child's rows: %v", got)
	}

	// Delete then append: a copy without a reclaim, in place — at the address
	// and length of the rows it replaces — with one.
	short := mustDelete(t, v2, 2)
	if tailAddr(short, 0) != tailAddr(v2, 0) {
		t.Fatal("DeleteTail must be a view")
	}
	if re := mustAppend(t, short, []int64{30, 40}, []string{"s0", "s0"}); tailAddr(re, 0) == tailAddr(v2, 0) {
		t.Fatal("an append after a delete must copy while the longer version may be read")
	}
	short.ReclaimTail("t")
	re := mustAppend(t, short, []int64{30, 40}, []string{"s0", "s0"})
	if tailAddr(re, 4002) != tailAddr(v2, 4002) || re.MustTable("t").Rows() != v2.MustTable("t").Rows() {
		t.Fatal("after ReclaimTail the append must land where the deleted rows were")
	}
	if got := re.MustTable("t").MustColumn("a").Values()[4002:]; !slices.Equal(got, []int64{30, 40}) {
		t.Fatalf("reclaimed tail reads %v", got)
	}

	// An in-place append nobody published costs the next append a copy.
	_ = mustAppend(t, re, []int64{9}, []string{"s0"})
	if again := mustAppend(t, re, []int64{9}, []string{"s0"}); tailAddr(again, 0) == tailAddr(re, 0) {
		t.Fatal("the append after a dropped in-place append must copy")
	}

	// A detached catalog shares columns but no lineage.
	det := re.Detached()
	if tailAddr(det, 0) != tailAddr(re, 0) {
		t.Fatal("Detached must share the columns")
	}
	if dv := mustAppend(t, det, []int64{1}, []string{"s0"}); tailAddr(dv, 0) == tailAddr(re, 0) {
		t.Fatal("the first append to a detached table must copy")
	}
	det.ReclaimTail("t") // no heap, no effect
	if got := re.MustTable("t").MustColumn("a").Values()[4002:]; !slices.Equal(got, []int64{30, 40}) {
		t.Fatalf("a detached catalog's mutations reached the original: %v", got)
	}
}

// TestHeapOldDictViewKeepsItsAnswers: a dictionary view is immutable — the
// lineage growing behind it changes none of its answers.
func TestHeapOldDictViewKeepsItsAnswers(t *testing.T) {
	v1 := mustAppend(t, heapFixture(6), []int64{1}, []string{"sx"})
	old := v1.MustTable("t").MustColumn("s").Dict()
	prefix := old.MatchPrefix("s")
	v2 := mustAppend(t, v1, []int64{2, 3}, []string{"sy", "other"})
	grown := v2.MustTable("t").MustColumn("s").Dict()
	if old.Len() != 4 || grown.Len() != 6 || old.Value(3) != "sx" || grown.Value(3) != "sx" {
		t.Fatalf("views: old %d values, grown %d", old.Len(), grown.Len())
	}
	if _, ok := old.Lookup("sy"); ok {
		t.Fatal("the old view finds a string added after it")
	}
	if c, ok := grown.Lookup("sy"); !ok || c != 4 {
		t.Fatalf("grown.Lookup(sy) = %d, %v", c, ok)
	}
	if again := old.MatchPrefix("s"); len(again) != 4 || &again[0] != &prefix[0] {
		t.Fatal("the old view's LIKE bitmap was recomputed or resized")
	}
	if m := grown.MatchPrefix("s"); !slices.Equal(m, []bool{true, true, true, true, true, false}) {
		t.Fatalf("grown.MatchPrefix = %v", m)
	}
	// Appending strings the view already holds returns the view itself.
	if same := mustAppend(t, v2, []int64{4}, []string{"other"}); same.MustTable("t").MustColumn("s").Dict() != grown {
		t.Fatal("an append without new strings made a new dictionary view")
	}
}
