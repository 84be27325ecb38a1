package algebra

import "repro/internal/storage"

// FetchInto performs tuple reconstruction (MonetDB's algebra.leftfetchjoin,
// §2.3 Figure 10): for every row id in oids it fetches the value at that head
// oid of the target column view into dst — a caller-owned destination, e.g. a
// partition clone's disjoint slice of one shared result buffer. It returns
// the number of values written (≤ len(oids)), the Work record — the same
// whoever owns dst, so shared-buffer and materializing executions cost the
// same — and the number of row ids dropped, so callers (and tests) can assert
// when strict containment is expected. dst must hold at least the kept oid
// count (len(oids) always suffices); a shorter dst panics, and no slot past
// len(dst) is written — past a partition clone's window lies a sibling's.
//
// Row ids outside the view are aligned away (paper §2.3, Figures 9/10). With
// fixed-size partitions the row ids are always a subset of the target's head
// oids (Figure 9A), but dynamic partitioning produces variable-sized
// partitions whose boundaries may over- or under-shoot the target view
// (Figures 9B–9F). The paper aligns the boundaries by trimming the row ids
// that fall outside the target range ("adjusting the lower boundary of LT by
// removing row-id=8", Figure 10), so that every lookup is a valid access with
// no repetition and no omission across sibling partitions.
//
// Any list is read once and nothing is allocated. gatherPrefix gathers the
// in-view, non-descending prefix — all of a selection vector. The rest, if
// any, is walked once: out-of-view oids are skipped, and descents among the
// kept ones are counted, for Work's serial-vs-random access distinction
// (§4.1). A list whose head lies outside the view (a lower-boundary drop)
// has that head skipped first, so the rest of an ascending list is still
// gathered out of line.
func FetchInto(dst []int64, oids []int64, target *storage.Column) (int, Work, int) {
	vals, seq := target.Values(), target.Seq()
	h := 0
	if len(oids) > 0 && uint64(oids[0]-seq) >= uint64(len(vals)) {
		h = outsidePrefix(oids, seq, len(vals))
	}
	n := gatherPrefix(dst, oids[h:], vals, seq)
	descents, prev := 0, seq
	if n > 0 {
		prev = oids[h+n-1]
	}
	for _, o := range oids[h+n:] {
		if uint64(o-seq) < uint64(len(vals)) {
			descents += b2i(o < prev)
			dst[n], prev = vals[o-seq], o
			n++
		}
	}
	// The oid list is scanned once sequentially. For ascending row ids (the
	// common case: selection vectors) the driven target accesses are one
	// fused forward skip-scan riding the same stream — the prefetcher serves
	// both, so the model charges that stream once rather than once per array.
	// Shuffled ids (join sides) genuinely touch a second region per value and
	// pay random access. Pinned by TestFetchWorkAccounting.
	w := Work{
		BytesSeqRead:   int64(len(oids)) * 8,
		BytesWritten:   int64(n) * 8,
		TuplesIn:       int64(len(oids)),
		TuplesOut:      int64(n),
		FootprintBytes: target.Bytes(),
		MemClaimBytes:  int64(n) * 8,
	}
	if descents > 0 {
		w.BytesRandRead = int64(n) * 8
	}
	return n, w, len(oids) - n
}

// gatherPrefix writes the value at every oid of the list's in-view,
// non-descending prefix into dst and returns the prefix's length. The prefix
// also ends at len(dst), so that a short dst is written no further. It is
// kept out of line: inlined into FetchInto, the loop's registers were
// spilled (see the compact* loops in select.go).
//
//go:noinline
func gatherPrefix(dst, oids, vals []int64, seq int64) int {
	oids = oids[:min(len(oids), len(dst))]
	prev := seq
	for i, o := range oids {
		if uint64(o-seq) >= uint64(len(vals)) || o < prev {
			return i
		}
		dst[i], prev = vals[o-seq], o
	}
	return len(oids)
}

// outsidePrefix returns how many oids at the head of the list lie outside
// the view [seq, seq+n). Out of line for the same reason as gatherPrefix.
//
//go:noinline
func outsidePrefix(oids []int64, seq int64, n int) int {
	for i, o := range oids {
		if uint64(o-seq) < uint64(n) {
			return i
		}
	}
	return len(oids)
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
