package algebra

import (
	"fmt"

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
// The oid list is read twice and nothing is allocated for ascending lists:
// one storage.AlignOids pass trims the boundary overshoot (a sub-slice) and
// classifies the access pattern, then the values are gathered by position.
func FetchInto(dst []int64, oids []int64, target *storage.Column) (int, Work, int) {
	aligned, dropped, ascending := storage.AlignOids(oids, target.Seq(), target.EndSeq())
	if len(dst) < len(aligned) {
		panic(fmt.Sprintf("algebra: FetchInto dst %d too small for %d aligned oids", len(dst), len(aligned)))
	}
	gather(dst, aligned, target)
	return len(aligned), fetchWork(oids, aligned, ascending, target.Bytes()), dropped
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
