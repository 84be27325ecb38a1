package algebra

import (
	"sort"

	"repro/internal/storage"
	"repro/internal/vec"
)

// Sort orders the view's values and returns the sorted column together with
// the permutation as absolute head oids (algebra.sort's (value, oid) pair).
// The sort is stable so that equal keys keep scan order, which keeps
// partitioned sort + merge result-identical to a serial sort.
func Sort(col *storage.Column, desc bool) (*storage.Column, []int64, Work) {
	n := col.Len()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	vals := col.Values()
	sort.SliceStable(perm, func(a, b int) bool {
		if desc {
			return vals[perm[a]] > vals[perm[b]]
		}
		return vals[perm[a]] < vals[perm[b]]
	})
	sorted := make([]int64, n)
	oids := make([]int64, n)
	for i, p := range perm {
		sorted[i] = vals[p]
		oids[i] = col.Seq() + int64(p)
	}
	data := vec.New(sorted, col.Dict())
	logN := int64(1)
	for x := n; x > 1; x >>= 1 {
		logN++
	}
	w := Work{
		BytesSeqRead:  col.Bytes(),
		BytesWritten:  int64(n) * 16,
		TuplesIn:      int64(n),
		TuplesOut:     int64(n),
		CompareOps:    int64(n) * logN,
		MemClaimBytes: int64(n) * 24,
	}
	return storage.NewColumn(col.Name(), 0, data), oids, w
}

// MergeSortedRuns merges pre-sorted runs (packed in partition order with run
// boundaries) into one sorted column — the combining stage when a sort
// operator is parallelized by the advanced mutation. Stability across runs
// follows run order for equal keys.
func MergeSortedRuns(runs []*storage.Column, desc bool) (*storage.Column, Work) {
	type cursor struct {
		run *storage.Column
		pos int
	}
	var cursors []cursor
	total := 0
	for _, r := range runs {
		if r.Len() > 0 {
			cursors = append(cursors, cursor{run: r})
		}
		total += r.Len()
	}
	out := make([]int64, 0, total)
	var compares int64
	for len(cursors) > 0 {
		best := 0
		for i := 1; i < len(cursors); i++ {
			compares++
			a := cursors[i].run.Data().At(cursors[i].pos)
			b := cursors[best].run.Data().At(cursors[best].pos)
			if (!desc && a < b) || (desc && a > b) {
				best = i
			}
		}
		c := &cursors[best]
		out = append(out, c.run.Data().At(c.pos))
		c.pos++
		if c.pos == c.run.Len() {
			cursors = append(cursors[:best], cursors[best+1:]...)
		}
	}
	var dict *vec.Dict
	if len(runs) > 0 {
		dict = runs[0].Dict()
	}
	data := vec.New(out, dict)
	name := "merge"
	if len(runs) > 0 {
		name = runs[0].Name()
	}
	w := Work{
		BytesSeqRead:  int64(total) * 8,
		BytesWritten:  int64(total) * 8,
		TuplesIn:      int64(total),
		TuplesOut:     int64(total),
		CompareOps:    compares,
		MemClaimBytes: int64(total) * 8,
	}
	return storage.NewColumn(name, 0, data), w
}
