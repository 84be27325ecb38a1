package algebra

import (
	"repro/internal/storage"
	"repro/internal/vec"
)

// PackColumns is the exchange-union operator (MonetDB's mat.pack) over
// materialized columns: it concatenates the partition outputs in argument
// order into one column with a dense head that starts where the first
// input's does: the union of the slices [lo,mid) and [mid,hi) of a value is
// its slice [lo,hi), so re-splitting a sliced clone leaves the row ids
// derived from its output unchanged. Argument order must be partition order;
// §2.3 shows why — the pack must "maintain the correct ordering to avoid the
// incorrect results". Its cost is pure data movement, which is why
// low-selectivity inputs make packs expensive and trigger the medium
// mutation.
func PackColumns(parts []*storage.Column) (*storage.Column, Work) {
	vecs := make([]*vec.Vector, len(parts))
	var tuplesIn int64
	for i, p := range parts {
		vecs[i] = p.Data()
		tuplesIn += int64(p.Len())
	}
	data := vec.Concat(vecs...)
	w := Work{
		BytesSeqRead:  tuplesIn * 8,
		BytesWritten:  data.Bytes(),
		TuplesIn:      tuplesIn,
		TuplesOut:     int64(data.Len()),
		MemClaimBytes: data.Bytes(),
	}
	return storage.NewColumn(parts[0].Name(), parts[0].Seq(), data), w
}

// PackColumnsView is the zero-copy exchange fast path: when the executor had
// the pack's sibling partition clones write their disjoint ranges of one
// shared result buffer, the pack is an O(1) view over that buffer under the
// first clone's name and head — "read only slices ... no data copying
// involved" (§2.3) applied to the union side of the exchange. data must be
// the fully written shared buffer, in partition order. The Work record
// reflects that no data moves: the cost model charges only dispatch (plus
// per-tuple exchange overhead on comparator calibrations), so adaptation sees
// the exchange for what it now costs.
func PackColumnsView(first *storage.Column, data *vec.Vector, tuplesIn int64) (*storage.Column, Work) {
	w := Work{
		TuplesIn:  tuplesIn,
		TuplesOut: int64(data.Len()),
	}
	return storage.NewColumn(first.Name(), first.Seq(), data), w
}

// PackOidsInto concatenates partition oid vectors in partition order,
// appending into dst's storage (dst[:0]); the executor passes the previous
// invocation's output buffer of the same cached instruction. A nil or short
// dst allocates exactly the packed length.
func PackOidsInto(dst []int64, parts [][]int64) ([]int64, Work) {
	var tuplesIn int64
	for _, p := range parts {
		tuplesIn += int64(len(p))
	}
	out := dst[:0]
	if cap(out) < int(tuplesIn) {
		out = make([]int64, 0, tuplesIn)
	}
	for _, p := range parts {
		out = append(out, p...)
	}
	w := Work{
		BytesSeqRead:  tuplesIn * 8,
		BytesWritten:  int64(len(out)) * 8,
		TuplesIn:      tuplesIn,
		TuplesOut:     int64(len(out)),
		MemClaimBytes: int64(len(out)) * 8,
	}
	return out, w
}

// PackScalarsOwned packs partial scalar aggregates into a small column, the
// shape MonetDB's Q14 plan uses (mat.pack of partial aggr.sum results,
// Figure 7). It takes ownership of partials: the caller transfers the slice
// and must not write it afterwards (the column aliases it). The executor
// gathers the partials into a slice it owns, so the hot aggregate-merge path
// copies the values once.
func PackScalarsOwned(name string, partials []int64) (*storage.Column, Work) {
	w := Work{
		BytesSeqRead:  int64(len(partials)) * 8,
		BytesWritten:  int64(len(partials)) * 8,
		TuplesIn:      int64(len(partials)),
		TuplesOut:     int64(len(partials)),
		MemClaimBytes: int64(len(partials)) * 8,
	}
	return storage.NewIntColumn(name, partials), w
}
