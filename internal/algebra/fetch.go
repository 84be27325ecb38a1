package algebra

import (
	"fmt"
	"slices"

	"repro/internal/storage"
)

// fetchWork is the shared cost accounting for tuple reconstruction. The oid
// list is scanned once sequentially. For ascending row ids (the common
// case: selection vectors) the driven target accesses are one fused forward
// skip-scan riding the same stream — the prefetcher serves both, so the
// model charges that stream once rather than once per array; the seed
// charged it twice (base Work plus the ascending branch), making ascending
// fetches cost as much sequential I/O as two full scans. Shuffled ids (join
// sides) genuinely touch a second region per value and pay random access.
// Pinned by TestFetchWorkAccounting.
func fetchWork(oids, aligned []int64, ascending bool, footprint int64) Work {
	w := Work{
		BytesSeqRead:   int64(len(oids)) * 8,
		BytesWritten:   int64(len(aligned)) * 8,
		TuplesIn:       int64(len(oids)),
		TuplesOut:      int64(len(aligned)),
		FootprintBytes: footprint,
		MemClaimBytes:  int64(len(aligned)) * 8,
	}
	if !ascending {
		w.BytesRandRead += int64(len(aligned)) * 8
	}
	return w
}

// FetchInto performs tuple reconstruction (MonetDB's algebra.leftfetchjoin,
// §2.3 Figure 10): for every row id in oids it fetches the value at that head
// oid of the target column view into dst — a caller-owned destination, e.g. a
// partition clone's disjoint slice of one shared result buffer. Row ids that
// fall outside the view are aligned away per the paper's dynamic-partition
// boundary correction. It returns the number of values written (≤ len(oids)),
// the Work record — the same whoever owns dst, so shared-buffer and
// materializing executions cost the same — and the number of row ids dropped,
// so callers (and tests) can assert when strict containment is expected. dst
// must hold at least the aligned oid count; len(oids) always suffices.
//
// An ascending oid list (a selection vector) is read once and nothing is
// allocated: fetchAscending aligns it by binary search inside the gather.
// Any other list (a join side, or drops interleaved with kept oids) fails a
// check there and takes the general path, which overwrites dst: one
// storage.AlignOids pass trims and classifies, then a gather by position.
func FetchInto(dst []int64, oids []int64, target *storage.Column) (int, Work, int) {
	if run, ok := fetchAscending(dst, oids, target); ok {
		return len(run), fetchWork(oids, run, true, target.Bytes()), len(oids) - len(run)
	}
	aligned, dropped, ascending := storage.AlignOids(oids, target.Seq(), target.EndSeq())
	if len(dst) < len(aligned) {
		panic(fmt.Sprintf("algebra: FetchInto dst %d too small for %d aligned oids", len(dst), len(aligned)))
	}
	gather(dst, aligned, target)
	return len(aligned), fetchWork(oids, aligned, ascending, target.Bytes()), dropped
}

// fetchAscending is FetchInto's one pass: two binary searches find the run
// of oids between the view's first oid and its end, gatherRun checks and
// gathers it (first, so an unsorted list fails fast), and a branch-free count
// finds no in-view oid around it. Then (ok) the run is AlignOids' kept list,
// ascending; otherwise dst may hold part of a gather.
func fetchAscending(dst, oids []int64, target *storage.Column) (run []int64, ok bool) {
	vals, seq := target.Values(), target.Seq()
	lo, _ := slices.BinarySearch(oids, seq)
	n, _ := slices.BinarySearch(oids[lo:], seq+int64(len(vals)))
	run = oids[lo : lo+n]
	ok = gatherRun(dst, run, vals, seq) &&
		countInView(oids[:lo], vals, seq) == 0 && countInView(oids[lo+n:], vals, seq) == 0
	return run, ok
}

// gatherRun writes the value at every oid of run into dst and reports
// whether each lies in the view and is not below its predecessor, stopping
// at the first that does not. A run longer than len(dst) is refused: the
// length, not the capacity, bounds it, because a partition clone's dst is a
// window of its pack group's shared buffer and what lies past it is a
// sibling's. The in-view test is the bounds check.
func gatherRun(dst, run, vals []int64, seq int64) bool {
	if len(run) > len(dst) {
		return false
	}
	dst = dst[:len(run)]
	prev := seq
	for i, o := range run {
		if uint64(o-seq) >= uint64(len(vals)) || o < prev {
			return false
		}
		dst[i], prev = vals[o-seq], o
	}
	return true
}

// countInView counts the oids that address the view vals starts at seq.
func countInView(oids, vals []int64, seq int64) int {
	c := 0
	for _, o := range oids {
		if uint64(o-seq) < uint64(len(vals)) {
			c++
		}
	}
	return c
}

// gather writes target's value at every aligned oid into dst[:len(aligned)],
// walking the view by position. AlignOids already confined the oids to the
// view; the slice bounds check is the safety net against a caller that did
// not.
func gather(dst, aligned []int64, target *storage.Column) {
	vals, seq := target.Values(), target.Seq()
	dst = dst[:len(aligned)]
	for i, oid := range aligned {
		dst[i] = vals[oid-seq]
	}
}

// FetchPositionsInto gathers the values of col at the given zero-based
// positions of the view (not absolute oids) into a caller-owned destination
// of length len(pos); used when an upstream operator emits positions into its
// own output space, e.g. join result sides.
func FetchPositionsInto(dst []int64, pos []int64, col *storage.Column) Work {
	vals := col.Values()
	for i, p := range pos {
		dst[i] = vals[p]
	}
	return Work{
		BytesSeqRead:   int64(len(pos)) * 8,
		BytesRandRead:  int64(len(pos)) * 8,
		BytesWritten:   int64(len(pos)) * 8,
		TuplesIn:       int64(len(pos)),
		TuplesOut:      int64(len(pos)),
		FootprintBytes: col.Bytes(),
		MemClaimBytes:  int64(len(pos)) * 8,
	}
}
