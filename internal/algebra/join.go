package algebra

import (
	"repro/internal/storage"
)

// HashJoinInto computes the equi-join between the outer column view (the
// larger, partitioned input — §2.1 Figure 4) and the inner column (on which
// the hash table is built). It returns two parallel oid vectors: louter holds
// absolute head oids of matching outer tuples in scan order, rinner the
// corresponding absolute head oids of inner matches, ascending per outer
// tuple. Both are appended from length 0 into the destinations' capacity, so
// a recycled buffer's contents never surface; a full destination is at least
// doubled, and one without capacity is allocated at len(outer), the size of a
// key–foreign-key join's result.
//
// The join only probes: cloned join operators probing the same inner share
// one cached index — the behaviour that makes outer-only partitioning
// profitable in the paper — and a join never reports a build (HashBuilds is
// 0). A base column's index is the catalog's, like its data: built on first
// use and charged to no plan. An intermediate's is built each run by the
// instruction that produces it (BuildHash, called by the executor), which is
// charged for it. MemClaimBytes is defined from lengths, not from the
// capacity of whichever buffers the caller happened to own: two output
// vectors of max(len(outer), matches) values each — what a key–foreign-key
// join claims.
func HashJoinInto(louterDst, rinnerDst []int64, outer, inner *storage.Column) (louter, rinner []int64, w Work) {
	idx := inner.Hash()
	ovals := outer.Values()
	louter, rinner = louterDst[:0], rinnerDst[:0]
	if cap(louter) == 0 {
		louter = make([]int64, 0, len(ovals))
	}
	if cap(rinner) == 0 {
		rinner = make([]int64, 0, len(ovals))
	}
	louter, rinner = idx.Probe(louter, rinner, ovals, outer.Seq())
	return louter, rinner, Work{
		BytesSeqRead:   outer.Bytes(),
		BytesRandRead:  int64(len(louter)) * 8,
		BytesWritten:   int64(len(louter)+len(rinner)) * 8,
		TuplesIn:       int64(len(ovals)) + int64(inner.Len()),
		TuplesOut:      int64(len(louter)),
		HashProbes:     int64(len(ovals)),
		FootprintBytes: hashFootprint(inner),
		MemClaimBytes:  int64(max(len(ovals), len(louter))) * 16,
	}
}

// BuildHash builds a fresh hash index over col, replacing any cached one, and
// returns the Work of that build.
func BuildHash(col *storage.Column) Work {
	col.RebuildHash()
	return Work{HashBuilds: int64(col.Len()), BytesSeqRead: col.Bytes(), MemClaimBytes: hashFootprint(col)}
}

// HashJoin is HashJoinInto into fresh vectors.
func HashJoin(outer, inner *storage.Column) (louter, rinner []int64, w Work) {
	return HashJoinInto(nil, nil, outer, inner)
}

// hashFootprint is the cost model's fixed estimate of a hash index over col,
// 24 B per tuple (bucket slot, oid, chaining overhead). The cost model
// compares it against the simulated shared L3 to decide probe cost — the
// mechanism behind the paper's 16 MB-inner vs 64 MB-inner speed-up gap. It is
// deliberately not the CSR index's real size, which depends on the form
// storage picked: it feeds Work, and changing it would move virtual time.
func hashFootprint(col *storage.Column) int64 {
	return int64(col.Len()) * 24
}

// NestedLoopJoin is the obviously-correct O(n·m) reference join used only by
// tests as the oracle for HashJoin.
func NestedLoopJoin(outer, inner *storage.Column) (louter, rinner []int64) {
	for i := 0; i < outer.Len(); i++ {
		ov := outer.Data().At(i)
		for j := 0; j < inner.Len(); j++ {
			if inner.Data().At(j) == ov {
				louter = append(louter, outer.Seq()+int64(i))
				rinner = append(rinner, inner.Seq()+int64(j))
			}
		}
	}
	return louter, rinner
}
