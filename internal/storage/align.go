package storage

import "math"

// Alignment of dynamically partitioned oid ranges (paper §2.3, Figures 9/10).
//
// Tuple reconstruction fetches values from a target column view (RH/RT in the
// paper) using row ids produced elsewhere (LT). With fixed-size partitions
// the row ids are always a subset of the target's head oids (Figure 9A), but
// dynamic partitioning produces variable-sized partitions whose boundaries
// may over- or under-shoot the target view (Figures 9B–9F). The paper aligns
// the boundaries by trimming row ids that fall outside the target range, so
// that every lookup is a valid access with no repetition and no omission
// across sibling partitions.
//
// algebra.SelectWithCandsInto aligns its candidates here. FetchInto aligns
// an ascending oid list itself, by binary search inside its gather, and
// calls AlignOids only for a list that fails that path's checks.

// AlignOids trims the sorted-or-unsorted oid list to those addressing the
// target view [tlo,thi), the "adjusting the lower boundary of LT by removing
// row-id=8" correction from Figure 10. It returns the kept oids, the number
// dropped, and whether the kept oids are in non-decreasing order — the
// access-pattern distinction the cost model uses (serial vs random access,
// §4.1). The common case — nothing to trim — is one branch-free pass that
// counts out-of-view oids and descents together. Nothing is allocated
// unless kept oids are interleaved with dropped ones: an untrimmed list is
// returned as is, and a list whose out-of-view oids sit at its ends (every
// ascending list) as the sub-slice between them.
func AlignOids(oids []int64, tlo, thi int64) (kept []int64, dropped int, ascending bool) {
	span := uint64(thi - tlo)
	descents, prev := 0, int64(math.MinInt64)
	for _, o := range oids {
		if uint64(o-tlo) >= span {
			dropped++
		}
		if o < prev {
			descents++
		}
		prev = o
	}
	if dropped == 0 {
		return oids, 0, descents == 0
	}
	kept = oids
	for len(kept) > 0 && uint64(kept[0]-tlo) >= span {
		kept = kept[1:]
	}
	for len(kept) > 0 && uint64(kept[len(kept)-1]-tlo) >= span {
		kept = kept[:len(kept)-1]
	}
	if len(kept) != len(oids)-dropped {
		run := kept
		kept = make([]int64, 0, len(oids)-dropped)
		for _, o := range run {
			if uint64(o-tlo) < span {
				kept = append(kept, o)
			}
		}
	}
	if descents == 0 {
		return kept, dropped, true
	}
	// A descent of the full list may have involved a dropped oid only.
	for i := 1; i < len(kept); i++ {
		if kept[i] < kept[i-1] {
			return kept, dropped, false
		}
	}
	return kept, dropped, true
}
