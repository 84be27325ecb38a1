package algebra

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/storage"
	"repro/internal/vec"
)

// Groups is the result of a group-by over a key column view: the distinct
// keys in first-appearance (scan) order and, for every input row, the dense
// group id it belongs to. Because range partitions preserve scan order,
// first-appearance order over concatenated partitions equals the serial
// order — which keeps advanced-mutation plans result-identical to serial
// plans (§2.1, advanced mutation).
type Groups struct {
	Keys *storage.Column // distinct keys, head oids = dense group ids
	GIDs []int64         // group id per input row
}

// NGroups returns the number of distinct keys.
func (g *Groups) NGroups() int { return g.Keys.Len() }

// groupScratch is the per-call working state of GroupBy and GroupMerge: the
// key → group-id table and the id vector GroupMerge folds partials through.
// Pooled, because a converged plan runs one group-by per clone per request.
type groupScratch struct {
	table storage.KeyTable
	ids   []int64
}

var groupScratchPool = sync.Pool{New: func() any { return new(groupScratch) }}

// groupIDs writes the dense first-appearance group id of every value into
// ids and returns the distinct keys, in id order, as a vector of their own.
func (s *groupScratch) groupIDs(ids, vals []int64, d *vec.Dict) *vec.Vector {
	lo, hi := storage.KeyBounds(vals)
	s.table.Reset(lo, hi, len(vals))
	s.table.Assign(ids, vals)
	uniq := slices.Clone(s.table.Keys())
	return vec.New(uniq, d)
}

// GroupBy groups the key column view by value.
func GroupBy(keys *storage.Column) (*Groups, Work) {
	vals := keys.Values()
	gids := make([]int64, len(vals))
	s := groupScratchPool.Get().(*groupScratch)
	data := s.groupIDs(gids, vals, keys.Dict())
	groupScratchPool.Put(s)
	uniq := data.Len()
	w := Work{
		BytesSeqRead:   keys.Bytes(),
		BytesWritten:   int64(len(gids)+uniq) * 8,
		TuplesIn:       int64(len(vals)),
		TuplesOut:      int64(uniq),
		HashProbes:     int64(len(vals)),
		CompareOps:     int64(len(vals)),
		FootprintBytes: int64(uniq) * 24,
		MemClaimBytes:  int64(len(gids)+uniq)*8 + int64(uniq)*24,
	}
	return &Groups{Keys: storage.NewColumn(keys.Name(), 0, data), GIDs: gids}, w
}

// AggrFunc enumerates aggregate functions (MonetDB's aggr.*).
type AggrFunc int

const (
	// AggrSum sums values.
	AggrSum AggrFunc = iota
	// AggrCount counts rows.
	AggrCount
	// AggrMin takes the minimum.
	AggrMin
	// AggrMax takes the maximum.
	AggrMax
)

func (f AggrFunc) String() string {
	switch f {
	case AggrSum:
		return "sum"
	case AggrCount:
		return "count"
	case AggrMin:
		return "min"
	case AggrMax:
		return "max"
	}
	return fmt.Sprintf("aggr(%d)", int(f))
}

// MergeFunc returns the function that combines partial aggregates of f:
// partial counts are summed, the rest merge with themselves.
func (f AggrFunc) MergeFunc() AggrFunc {
	if f == AggrCount {
		return AggrSum
	}
	return f
}

// Aggregate-identity sentinels for empty partials, chosen so that merging
// ignores them (min of empty partition must not win the global min).
const (
	minEmpty = NoHigh
	maxEmpty = NoLow
)

func (f AggrFunc) identity() int64 {
	switch f {
	case AggrMin:
		return minEmpty
	case AggrMax:
		return maxEmpty
	default:
		return 0
	}
}

// AggrGrouped computes f over vals per group. vals must be positionally
// aligned with the rows the Groups were computed from (same view span).
func AggrGrouped(f AggrFunc, vals *storage.Column, g *Groups) (*storage.Column, Work) {
	v := vals.Values()
	if len(v) != len(g.GIDs) {
		panic(fmt.Sprintf("algebra: AggrGrouped misaligned: %d values vs %d gids", len(v), len(g.GIDs)))
	}
	out := make([]int64, g.NGroups())
	for i := range out {
		out[i] = f.identity()
	}
	gids := g.GIDs
	switch f {
	case AggrSum:
		for i, x := range v {
			out[gids[i]] += x
		}
	case AggrCount:
		for _, gid := range gids {
			out[gid]++
		}
	case AggrMin:
		for i, x := range v {
			out[gids[i]] = min(out[gids[i]], x)
		}
	case AggrMax:
		for i, x := range v {
			out[gids[i]] = max(out[gids[i]], x)
		}
	default:
		panic("algebra: unknown aggregate")
	}
	w := Work{
		BytesSeqRead:   vals.Bytes() + int64(len(g.GIDs))*8,
		BytesWritten:   int64(len(out)) * 8,
		TuplesIn:       int64(len(v)),
		TuplesOut:      int64(len(out)),
		FootprintBytes: int64(len(out)) * 8,
		MemClaimBytes:  int64(len(out)) * 8,
	}
	return storage.NewColumn(fmt.Sprintf("%s(%s)", f, vals.Name()), 0, vec.NewInt64(out)), w
}

// Aggr computes the scalar aggregate of f over the view. Empty inputs return
// the identity sentinel of f (0 for sum/count; the NoHigh/NoLow sentinels for
// min/max), which MergeScalars treats as an absent partial — so partitioned
// aggregation composes exactly with the serial result even through empty
// partitions.
func Aggr(f AggrFunc, vals *storage.Column) (int64, Work) {
	v := vals.Values()
	acc := f.identity()
	switch f {
	case AggrSum:
		for _, x := range v {
			acc += x
		}
	case AggrCount:
		acc = int64(len(v))
	case AggrMin:
		for _, x := range v {
			acc = min(acc, x)
		}
	case AggrMax:
		for _, x := range v {
			acc = max(acc, x)
		}
	default:
		panic("algebra: unknown aggregate")
	}
	w := Work{
		BytesSeqRead: vals.Bytes(),
		TuplesIn:     int64(vals.Len()),
		TuplesOut:    1,
	}
	return acc, w
}

// MergeScalars combines partial scalar aggregates produced by cloned Aggr
// operators (packed into a small column) into the final scalar, skipping
// empty-partition sentinels.
func MergeScalars(f AggrFunc, partials *storage.Column) (int64, Work) {
	acc := f.identity()
	switch f {
	case AggrSum, AggrCount: // partial counts are summed
		for _, x := range partials.Values() {
			acc += x
		}
	case AggrMin:
		for _, x := range partials.Values() {
			if x != minEmpty { // empty partition sentinel
				acc = min(acc, x)
			}
		}
	case AggrMax:
		for _, x := range partials.Values() {
			if x != maxEmpty {
				acc = max(acc, x)
			}
		}
	default:
		panic("algebra: unknown aggregate")
	}
	w := Work{
		BytesSeqRead: partials.Bytes(),
		TuplesIn:     int64(partials.Len()),
		TuplesOut:    1,
	}
	return acc, w
}

// combineMerge merges two partial aggregates (as opposed to folding a raw
// value in): for sum that is addition, for min/max the same comparison.
func (f AggrFunc) combineMerge(acc, partial int64) int64 {
	switch f {
	case AggrSum, AggrCount:
		return acc + partial
	case AggrMin:
		if partial < acc {
			return partial
		}
		return acc
	case AggrMax:
		if partial > acc {
			return partial
		}
		return acc
	}
	panic("algebra: unknown aggregate")
}

// GroupMerge re-groups packed per-partition group keys with their packed
// partial aggregates into final (keys, aggregates) — the combining stage of
// the paper's advanced mutation. keys and partials must be positionally
// aligned and ordered by partition (pack order), which makes the output key
// order equal to the serial first-appearance order.
func GroupMerge(f AggrFunc, keys, partials *storage.Column) (*storage.Column, *storage.Column, Work) {
	kv, pv := keys.Values(), partials.Values()
	if len(kv) != len(pv) {
		panic(fmt.Sprintf("algebra: GroupMerge misaligned: %d keys vs %d partials", len(kv), len(pv)))
	}
	m := f.MergeFunc()
	s := groupScratchPool.Get().(*groupScratch)
	if cap(s.ids) < len(kv) {
		s.ids = make([]int64, len(kv))
	}
	ids := s.ids[:len(kv)]
	keyData := s.groupIDs(ids, kv, keys.Dict())
	uniq := keyData.Values()
	aggs := make([]int64, len(uniq))
	for j := range aggs {
		aggs[j] = m.identity()
	}
	for i, j := range ids {
		aggs[j] = m.combineMerge(aggs[j], pv[i])
	}
	groupScratchPool.Put(s)
	w := Work{
		BytesSeqRead:   keys.Bytes() + partials.Bytes(),
		BytesWritten:   int64(len(uniq)+len(aggs)) * 8,
		TuplesIn:       int64(len(kv)),
		TuplesOut:      int64(len(uniq)),
		HashProbes:     int64(len(kv)),
		FootprintBytes: int64(len(uniq)) * 24,
		MemClaimBytes:  int64(len(uniq)+len(aggs)) * 8,
	}
	return storage.NewColumn(keys.Name(), 0, keyData),
		storage.NewColumn(fmt.Sprintf("%s*", f), 0, vec.NewInt64(aggs)), w
}
