package algebra

import (
	"math"

	"repro/internal/storage"
)

// Range is a one-sided or two-sided range predicate over int64 payloads.
// Unbounded sides use the sentinel values NoLow / NoHigh.
type Range struct {
	Lo, Hi         int64
	LoIncl, HiIncl bool
}

// Sentinels for unbounded range sides.
const (
	NoLow  = int64(-1) << 62
	NoHigh = int64(1) << 62
)

// FullRange matches every value.
func FullRange() Range { return Range{Lo: NoLow, Hi: NoHigh} }

// Eq returns the point predicate value == v.
func Eq(v int64) Range { return Range{Lo: v, Hi: v, LoIncl: true, HiIncl: true} }

// Between returns the inclusive range [lo, hi].
func Between(lo, hi int64) Range { return Range{Lo: lo, Hi: hi, LoIncl: true, HiIncl: true} }

// HalfOpen returns the range [lo, hi).
func HalfOpen(lo, hi int64) Range { return Range{Lo: lo, Hi: hi, LoIncl: true} }

// LessThan returns value < hi.
func LessThan(hi int64) Range { return Range{Lo: NoLow, Hi: hi} }

// AtMost returns value <= hi.
func AtMost(hi int64) Range { return Range{Lo: NoLow, Hi: hi, HiIncl: true} }

// GreaterThan returns value > lo.
func GreaterThan(lo int64) Range { return Range{Lo: lo, Hi: NoHigh} }

// AtLeast returns value >= lo.
func AtLeast(lo int64) Range { return Range{Lo: lo, Hi: NoHigh, LoIncl: true} }

// Matches reports whether v satisfies the predicate.
func (r Range) Matches(v int64) bool {
	if r.Lo != NoLow {
		if r.LoIncl {
			if v < r.Lo {
				return false
			}
		} else if v <= r.Lo {
			return false
		}
	}
	if r.Hi != NoHigh {
		if r.HiIncl {
			if v > r.Hi {
				return false
			}
		} else if v >= r.Hi {
			return false
		}
	}
	return true
}

// closed normalizes the predicate, once per kernel call, to the closed int64
// interval [lo, lo+span]: a sentinel opens its side to the int64 edge, an
// exclusive bound steps inward. The scan then tests uint64(v-lo) <= span, one
// unsigned compare that is exact over the whole int64 domain. ok is false
// when nothing can match (lo > hi, or an exclusive bound at the int64 edge).
// Matches stays the scalar definition the kernels are fuzzed against.
func (r Range) closed() (lo int64, span uint64, ok bool) {
	lo, hi, ok := int64(math.MinInt64), int64(math.MaxInt64), true
	if r.Lo != NoLow {
		lo = r.Lo
		if !r.LoIncl {
			ok = lo != math.MaxInt64
			lo++
		}
	}
	if r.Hi != NoHigh {
		hi = r.Hi
		if !r.HiIncl {
			ok = ok && hi != math.MinInt64
			hi--
		}
	}
	return lo, uint64(hi - lo), ok && lo <= hi
}

// b2i is the bool-to-int conversion the compiler lowers to a flag set, not a
// jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// The compact* functions are the inner loops of the select kernels: every
// tuple's oid is written to w[m] and m advances only on a match, so there is
// no data-dependent jump to mispredict — a 50 %-selective predicate costs
// what a 1 % one does. They return how many leading slots of w hold matches
// (the rest is scratch); w must be as long as the input, and the bounds check
// on w[m] stays. They are kept out of line so that m, the loop-carried index,
// lives in a register whatever the caller's register pressure: inlined into
// SelectInto it was spilled and the jump came back.

// compactRange matches vals, whose oids are oid, oid+1, …, against the closed
// interval [lo, lo+span].
//
//go:noinline
func compactRange(w, vals []int64, oid, lo int64, span uint64) int {
	m := 0
	for _, v := range vals {
		w[m] = oid
		oid++
		m += b2i(uint64(v-lo) <= span)
	}
	return m
}

// compactCands matches the values the candidate oids address, read by
// position from the view (vals, head oid seq). It stops at the first
// candidate that is out of the view or below its predecessor (prev before
// the first) and returns the matches and the candidates it consumed.
//
//go:noinline
func compactCands(w, cands, vals []int64, seq, prev, lo int64, span uint64) (m, n int) {
	for i, oid := range cands {
		if uint64(oid-seq) >= uint64(len(vals)) || oid < prev {
			return m, i
		}
		w[m], prev = oid, oid
		m += b2i(uint64(vals[oid-seq]-lo) <= span)
	}
	return m, len(cands)
}

// compactMembers matches dictionary codes, whose oids are oid, oid+1, …,
// against a membership bitmap (inverted by anti).
//
//go:noinline
func compactMembers(w, codes []int64, oid int64, member []bool, anti bool) int {
	m := 0
	for _, c := range codes {
		w[m] = oid
		oid++
		m += b2i(member[c] != anti)
	}
	return m
}

// SelectInto scans the column view and returns the absolute head oids of
// matching tuples in ascending order (MonetDB's algebra.uselect /
// algebra.subselect). The oids are absolute so that partitioned selects over
// sibling views concatenate into exactly the serial result.
//
// The oids are appended into dst's storage (dst[:0]): the executor passes the
// previous invocation's output buffer of the same cached instruction, so
// steady-state serving allocates nothing here. A nil dst allocates at the
// kernel's own estimate. As with append, dst's storage up to its capacity is
// the kernel's to overwrite.
//
// The predicate is normalized once (Range.closed) and the view is compacted
// branch-free (compactRange) straight into out's spare capacity, a chunk of
// as many tuples as that capacity has slots at a time — a chunk emits at most
// one oid per tuple, so it cannot outrun the buffer. A full buffer grows
// through append on its next match, so the emitted slice and its capacity are
// exactly what a per-tuple append would have produced: no buffer is ever
// sized to its partition.
func SelectInto(dst []int64, col *storage.Column, pred Range) ([]int64, Work) {
	vals := col.Values()
	seq := col.Seq()
	out := dst[:0]
	if cap(out) == 0 {
		out = make([]int64, 0, len(vals)/4+1)
	}
	lo, span, ok := pred.closed()
	for i := 0; ok && i < len(vals); {
		n := min(len(vals)-i, cap(out)-len(out))
		if n == 0 {
			if uint64(vals[i]-lo) <= span {
				out = append(out, seq+int64(i))
			}
			i++
			continue
		}
		k := len(out)
		out = out[:k+compactRange(out[k:k+n], vals[i:i+n], seq+int64(i), lo, span)]
		i += n
	}
	w := Work{
		BytesSeqRead: col.Bytes(),
		BytesWritten: int64(len(out)) * 8,
		TuplesIn:     int64(len(vals)),
		TuplesOut:    int64(len(out)),
		// The logical claim is the emitted selection, not the buffer's
		// happenstance capacity: recycled buffers (the engine pool) would
		// otherwise make profiled Work depend on allocator history.
		MemClaimBytes: int64(len(out)) * 8,
	}
	return out, w
}

// SelectWithCandsInto refines an existing candidate oid list against the
// view: the two-input filter-operator semantics the paper discusses in §2.2
// ("accepts column and also a bit vector from another selection operator's
// output"). Candidates outside the view's oid span are aligned away (§2.3,
// see FetchInto) so partitioned refinement stays a valid access; the number
// dropped is returned. Matches are appended into dst's storage; see
// SelectInto for the buffer-reuse contract and the branch-free compaction.
// The list is read once, as FetchInto reads it: compactCands takes the
// in-view, non-descending prefix (all of a selection vector) and the rest,
// if any, is walked once, skipping out-of-view candidates and counting
// descents among the kept ones.
func SelectWithCandsInto(dst []int64, col *storage.Column, pred Range, cands []int64) ([]int64, Work, int) {
	vals, seq := col.Values(), col.Seq()
	out := dst[:0]
	if cap(out) == 0 {
		out = make([]int64, 0, len(cands)/2+1)
	}
	lo, span, ok := pred.closed()
	i, prev := 0, seq
	for ok && i < len(cands) {
		n := min(len(cands)-i, cap(out)-len(out))
		if n == 0 {
			o := cands[i]
			if uint64(o-seq) >= uint64(len(vals)) || o < prev {
				break
			}
			if uint64(vals[o-seq]-lo) <= span {
				out = append(out, o)
			}
			i, prev = i+1, o
			continue
		}
		k := len(out)
		m, c := compactCands(out[k:k+n], cands[i:i+n], vals, seq, prev, lo, span)
		out, i = out[:k+m], i+c
		if i > 0 {
			prev = cands[i-1]
		}
		if c < n {
			break
		}
	}
	kept, descents := i, 0
	for _, o := range cands[i:] {
		if uint64(o-seq) < uint64(len(vals)) {
			kept++
			descents += b2i(o < prev)
			prev = o
			if ok && uint64(vals[o-seq]-lo) <= span {
				out = append(out, o)
			}
		}
	}
	w := Work{
		BytesSeqRead:   int64(len(cands)) * 8,
		BytesWritten:   int64(len(out)) * 8,
		TuplesIn:       int64(len(cands)),
		TuplesOut:      int64(len(out)),
		FootprintBytes: col.Bytes(),
		MemClaimBytes:  int64(len(out)) * 8,
	}
	// Candidate lists from selects are ascending, so the driven accesses are
	// a forward skip-scan — effectively sequential for the prefetcher.
	// Unsorted candidates pay random-access cost instead.
	if descents == 0 {
		w.BytesSeqRead += int64(kept) * 8
	} else {
		w.BytesRandRead += int64(kept) * 8
	}
	return out, w, len(cands) - kept
}

// LikeKind selects the string-match flavour of SelectLikeInto.
type LikeKind int

const (
	// LikeContains matches LIKE '%pat%'.
	LikeContains LikeKind = iota
	// LikePrefix matches LIKE 'pat%'.
	LikePrefix
)

// SelectLikeInto scans a dictionary-coded column view and returns absolute
// head oids whose string matches (or, with anti, does not match) the pattern.
// The dictionary is matched once and the column scan tests code membership —
// the standard columnar batstr.like evaluation. Matches are appended into
// dst's storage; see SelectInto for the buffer-reuse contract and the
// branch-free compaction. The membership bitmap is the dictionary's memo
// (vec.Dict.MatchSubstring), so the clones of a partitioned LIKE share one
// dictionary pass; Work charges the pass regardless, as the cost model always
// has.
func SelectLikeInto(dst []int64, col *storage.Column, pattern string, kind LikeKind, anti bool) ([]int64, Work) {
	dict := col.Dict()
	if dict == nil {
		panic("algebra: SelectLike over a non-string column " + col.Name())
	}
	var member []bool
	switch kind {
	case LikePrefix:
		member = dict.MatchPrefix(pattern)
	default:
		member = dict.MatchSubstring(pattern)
	}
	vals := col.Values()
	seq := col.Seq()
	out := dst[:0]
	if cap(out) == 0 {
		out = make([]int64, 0, len(vals)/8+1)
	}
	for i := 0; i < len(vals); {
		n := min(len(vals)-i, cap(out)-len(out))
		if n == 0 {
			if member[vals[i]] != anti {
				out = append(out, seq+int64(i))
			}
			i++
			continue
		}
		k := len(out)
		out = out[:k+compactMembers(out[k:k+n], vals[i:i+n], seq+int64(i), member, anti)]
		i += n
	}
	w := Work{
		BytesSeqRead:   col.Bytes() + int64(dict.Len())*16, // codes + dictionary pass
		BytesWritten:   int64(len(out)) * 8,
		TuplesIn:       int64(len(vals)),
		TuplesOut:      int64(len(out)),
		FootprintBytes: int64(len(member)),
		MemClaimBytes:  int64(len(out))*8 + int64(len(member)),
	}
	return out, w
}
