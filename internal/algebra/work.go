// Package algebra implements the relational operators of the column store:
// selection (range and LIKE predicates, with candidate lists), tuple
// reconstruction (fetch join), hash join with cached builds, vectorized
// arithmetic, grouping and aggregation, sorting, and the exchange-union pack
// operator.
//
// Every operator does real work on real data and additionally reports a Work
// record describing that work in hardware-relevant units. The cost model
// (internal/cost) converts Work into virtual time on the simulated machine;
// this is what lets the engine execute "a 32-core server" faithfully on a
// single-core host while keeping results bit-exact.
//
// Each operator has one kernel body and one Work formula. The kernels that
// produce a column payload or an oid list are …Into-only: they fill a
// destination the caller sized (FetchInto, CalcVVInto, …) or append into the
// caller's storage (SelectInto, PackOidsInto, …) and never allocate their
// output except on a nil or short append destination. Who owns the
// destination is the executor's decision (exec's dest/done seam).
package algebra

// Work describes the physical effort of one operator execution.
type Work struct {
	// BytesSeqRead counts sequentially scanned input bytes.
	BytesSeqRead int64
	// BytesRandRead counts randomly accessed input bytes (tuple
	// reconstruction, hash probes chasing values).
	BytesRandRead int64
	// BytesWritten counts materialized output bytes.
	BytesWritten int64
	// TuplesIn / TuplesOut count logical tuples consumed and produced.
	TuplesIn, TuplesOut int64
	// HashBuilds counts tuples inserted into a fresh hash index: only
	// BuildHash, run by an intermediate join inner's producer, reports any.
	// A join's probe and a base column's cached index report none.
	HashBuilds int64
	// HashProbes counts hash table lookups.
	HashProbes int64
	// CompareOps counts comparison-dominated work (sorting, grouping).
	CompareOps int64
	// FootprintBytes is the random-access working set (hash table or
	// dictionary size); the cost model uses it for L3-residency decisions —
	// the effect behind the 16 MB vs 64 MB join inner result (§4.1.2).
	FootprintBytes int64
	// MemClaimBytes is the peak transient allocation, profiled like
	// MonetDB's per-operator memory claims.
	MemClaimBytes int64
}

// Add accumulates other into w.
func (w *Work) Add(other Work) {
	w.BytesSeqRead += other.BytesSeqRead
	w.BytesRandRead += other.BytesRandRead
	w.BytesWritten += other.BytesWritten
	w.TuplesIn += other.TuplesIn
	w.TuplesOut += other.TuplesOut
	w.HashBuilds += other.HashBuilds
	w.HashProbes += other.HashProbes
	w.CompareOps += other.CompareOps
	if other.FootprintBytes > w.FootprintBytes {
		w.FootprintBytes = other.FootprintBytes
	}
	w.MemClaimBytes += other.MemClaimBytes
}
