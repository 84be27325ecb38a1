// Package plan implements the query-plan representation of the engine: an
// SSA list of operators over typed variables, forming a dataflow graph — the
// same properties MonetDB's MAL gives the paper ("its plan representation
// allows identification of individual expensive operators", §2). Plans are
// value-like: an instruction is immutable once it is in a plan, and a
// mutation derives a new plan that shares the unchanged instructions and
// replaces the ones it rewrites, never touching the original, so the plan
// history kept by adaptive parallelization stays valid.
//
// Every partitionable instruction carries a Part — a binary-rational range
// over its anchor input. Partition boundaries are dyadic fractions, so
// repeated splits stay aligned on the base column (Figure 8) no matter the
// runtime input length: floor(n·k/2^m) boundaries of a coarse split always
// coincide with boundaries of its refinements.
//
// Ownership invariants: a *Plan handed to the executor is immutable from
// that point on — the execution engine caches compilation state keyed by
// plan object identity, and ComputeDiff matches instructions structurally
// between a parent and its mutated clone, both of which are only sound
// because no instruction is ever rewritten in place after submission.
// Clone slab-allocates its instructions; the clone owns the slab.
package plan

import (
	"fmt"
	"slices"
)

// VarID names an SSA variable within one plan.
type VarID int

// Kind is the runtime type of a variable.
type Kind int

// Variable kinds.
const (
	KindColumn Kind = iota // materialized column view (values)
	KindOids               // selection vector of absolute head oids
	KindScalar             // single int64
	KindGroups             // group-by result (keys + gids)
)

func (k Kind) String() string {
	switch k {
	case KindColumn:
		return "col"
	case KindOids:
		return "oids"
	case KindScalar:
		return "scalar"
	case KindGroups:
		return "groups"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// OpCode enumerates plan operators.
type OpCode int

// Operators. The names follow the MAL operators they model.
const (
	// OpBind binds a base table column (sql.bind). Aux: BindAux.
	OpBind OpCode = iota
	// OpConst produces a scalar constant. Aux: ConstAux.
	OpConst
	// OpSelect scans a column with a range predicate → oids (algebra.uselect).
	// Args: [col]. Aux: SelectAux. Partitionable on arg 0.
	OpSelect
	// OpSelectCand refines candidates against a column (algebra.subselect
	// with a candidate list). Args: [col, cands]. Aux: SelectAux.
	// Partitionable on arg 1 (the candidate list).
	OpSelectCand
	// OpLikeSelect scans a string column with a LIKE pattern → oids
	// (batstr.like + uselect). Args: [col]. Aux: LikeAux. Partitionable on
	// arg 0.
	OpLikeSelect
	// OpFetch is tuple reconstruction (algebra.leftfetchjoin). Args:
	// [oids, col] → col. Partitionable on arg 0.
	OpFetch
	// OpJoin is a hash join building on the inner, probing the outer
	// (algebra.join). Args: [outer(col), inner(col)] → [louter(oids),
	// rinner(oids)]. Partitionable on arg 0 (the outer), per §2.1.
	OpJoin
	// OpFetchPos gathers arg1 values at zero-based positions arg0.
	// Args: [pos(oids), col] → col. Partitionable on arg 0.
	OpFetchPos
	// OpCalcVV is element-wise arithmetic (batcalc.*). Args: [a, b] → col.
	// Aux: CalcAux. Partitionable on args 0 and 1 jointly.
	OpCalcVV
	// OpCalcSV is arithmetic with a scalar constant operand. Args: [v] →
	// col. Aux: CalcAux (Scalar, ScalarLeft). Partitionable on arg 0.
	OpCalcSV
	// OpCalcSSV is arithmetic between a scalar variable and a column.
	// Args: [s(scalar), v(col)] → col. Aux: CalcAux (ScalarLeft).
	// Partitionable on arg 1.
	OpCalcSSV
	// OpCalcSS is scalar-scalar arithmetic (calc.*). Args: [a, b] → scalar.
	// Aux: CalcAux.
	OpCalcSS
	// OpGroupBy groups a key column (group.subgroup). Args: [keys] →
	// groups. Parallelized only via the advanced mutation.
	OpGroupBy
	// OpGroupKeys extracts the distinct keys of a groups value. Args:
	// [groups] → col.
	OpGroupKeys
	// OpAggrGrouped aggregates values per group (aggr.subsum). Args:
	// [vals, groups] → col. Aux: AggrAux.
	OpAggrGrouped
	// OpAggr is a scalar aggregate (aggr.sum). Args: [vals] → scalar. Aux:
	// AggrAux. Parallelized via the advanced mutation (partials + merge).
	OpAggr
	// OpMergeAggr merges packed partial scalar aggregates. Args: [partials
	// (col)] → scalar. Aux: AggrAux (the ORIGINAL aggregate; merge
	// semantics are derived from it).
	OpMergeAggr
	// OpGroupMerge re-groups packed per-partition (keys, partial) pairs.
	// Args: [keys(col), partials(col)] → [keys(col), aggs(col)]. Aux:
	// AggrAux.
	OpGroupMerge
	// OpPack is the exchange union operator (mat.pack). Variadic args of
	// one kind: all-oids → oids, all-columns → col, all-scalars → col.
	OpPack
	// OpSort sorts a column (algebra.sort). Args: [col] → [sorted(col),
	// perm(oids)]. Aux: SortAux.
	OpSort
	// OpMergeSorted merges pre-sorted runs. Variadic col args → col. Aux:
	// SortAux.
	OpMergeSorted
	// OpResult marks query outputs (sql.exportValue); variadic args.
	OpResult
)

// mutClass is the mutation scheme of §2.1 that parallelizes an operator.
type mutClass uint8

const (
	mutNone     mutClass = iota
	mutBasic             // Figure 3: clone over a split range, exchange union
	mutAdvanced          // Figure 6: no filtering property — partials + merge
)

// Arity rules of an opSpec.
const (
	fixedArgs uint8 = iota // exactly the kinds in args
	oneKindOf              // one or more inputs, all of ONE kind out of args
	anyArgs                // any inputs (result)
)

// opSpec is everything the package knows about one operator. Validate, the
// partitioning lookups below, the pack-group analysis and the mutations in
// core and heuristic all read this one table.
type opSpec struct {
	name  string
	arity uint8
	args  []Kind // argument kinds (oneKindOf: the kinds an input may have)
	rets  []Kind // result kinds; a pack's single result is PackKind of its inputs
	aux   uint8  // aux discriminator the operator carries (auxNone: no aux)
	slice []int  // argument indices a Part slices; nil: not partitionable
	class mutClass
	// rowIDs lists the results that are row ids in the row space of the
	// sliced argument: positions/head oids that are only meaningful against
	// the value the operator scanned, not global ids (a join's rinner holds
	// oids of the shared inner and is not one).
	rowIDs []int
	// shares marks a materializing operator whose output range is fixed by
	// its (sliced) anchor length, so its clones may write one exchange buffer.
	shares bool
}

var (
	kCol    = []Kind{KindColumn}
	kOids   = []Kind{KindOids}
	kScalar = []Kind{KindScalar}
	arg0    = []int{0}
	arg1    = []int{1}
)

var opSpecs = [...]opSpec{
	OpBind:        {name: "bind", rets: kCol, aux: auxBind},
	OpConst:       {name: "const", rets: kScalar, aux: auxConst},
	OpSelect:      {name: "select", args: kCol, rets: kOids, aux: auxSelect, slice: arg0, class: mutBasic, rowIDs: arg0},
	OpSelectCand:  {name: "selectcand", args: []Kind{KindColumn, KindOids}, rets: kOids, aux: auxSelect, slice: arg1, class: mutBasic, rowIDs: arg0},
	OpLikeSelect:  {name: "likeselect", args: kCol, rets: kOids, aux: auxLike, slice: arg0, class: mutBasic, rowIDs: arg0},
	OpFetch:       {name: "fetch", args: []Kind{KindOids, KindColumn}, rets: kCol, slice: arg0, class: mutBasic, shares: true},
	OpJoin:        {name: "join", args: []Kind{KindColumn, KindColumn}, rets: []Kind{KindOids, KindOids}, slice: arg0, class: mutBasic, rowIDs: arg0},
	OpFetchPos:    {name: "fetchpos", args: []Kind{KindOids, KindColumn}, rets: kCol, slice: arg0, class: mutBasic, shares: true},
	OpCalcVV:      {name: "calcvv", args: []Kind{KindColumn, KindColumn}, rets: kCol, aux: auxCalc, slice: []int{0, 1}, class: mutBasic, shares: true},
	OpCalcSV:      {name: "calcsv", args: kCol, rets: kCol, aux: auxCalc, slice: arg0, class: mutBasic, shares: true},
	OpCalcSSV:     {name: "calcssv", args: []Kind{KindScalar, KindColumn}, rets: kCol, aux: auxCalc, slice: arg1, class: mutBasic, shares: true},
	OpCalcSS:      {name: "calcss", args: []Kind{KindScalar, KindScalar}, rets: kScalar, aux: auxCalc},
	OpGroupBy:     {name: "groupby", args: kCol, rets: []Kind{KindGroups}, slice: arg0, class: mutAdvanced},
	OpGroupKeys:   {name: "groupkeys", args: []Kind{KindGroups}, rets: kCol},
	OpAggrGrouped: {name: "aggrgrouped", args: []Kind{KindColumn, KindGroups}, rets: kCol, aux: auxAggr, slice: arg0},
	OpAggr:        {name: "aggr", args: kCol, rets: kScalar, aux: auxAggr, slice: arg0, class: mutAdvanced},
	OpMergeAggr:   {name: "mergeaggr", args: kCol, rets: kScalar, aux: auxAggr},
	OpGroupMerge:  {name: "groupmerge", args: []Kind{KindColumn, KindColumn}, rets: []Kind{KindColumn, KindColumn}, aux: auxAggr},
	OpPack:        {name: "pack", arity: oneKindOf, args: []Kind{KindOids, KindColumn, KindScalar}},
	OpSort:        {name: "sort", args: kCol, rets: []Kind{KindColumn, KindOids}, aux: auxSort, slice: arg0, class: mutAdvanced, rowIDs: arg1},
	OpMergeSorted: {name: "mergesorted", arity: oneKindOf, args: kCol, rets: kCol, aux: auxSort},
	OpResult:      {name: "result", arity: anyArgs},
}

var noSpec opSpec

// spec returns op's table row; an unknown opcode gets the zero row (no name,
// not partitionable), which Validate rejects.
func (op OpCode) spec() *opSpec {
	if op < 0 || int(op) >= len(opSpecs) {
		return &noSpec
	}
	return &opSpecs[op]
}

func (op OpCode) String() string {
	if n := op.spec().name; n != "" {
		return n
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// SliceArgs returns the argument indices that a Part slices for op, or nil
// when the operator is not range-partitionable by the basic mutation.
// GroupBy, Aggr and Sort are handled by the advanced mutation instead and
// report their anchor here too (the advanced mutation slices the same way).
func SliceArgs(op OpCode) []int { return op.spec().slice }

// BasicPartitionable reports whether the basic mutation (Figure 3) applies.
func BasicPartitionable(op OpCode) bool { return op.spec().class == mutBasic }

// AdvancedPartitionable reports whether the advanced mutation (Figure 6 —
// operators without the filtering property) applies.
func AdvancedPartitionable(op OpCode) bool { return op.spec().class == mutAdvanced }

// RowIDRet reports whether result ri of op holds row ids in the row space of
// op's sliced argument (see opSpec.rowIDs).
func RowIDRet(op OpCode, ri int) bool { return slices.Contains(op.spec().rowIDs, ri) }

// PackKind returns the result kind of an exchange union over inputs of kind
// k: oids pack to oids, columns and scalars to a column.
func PackKind(k Kind) Kind {
	if k == KindOids {
		return KindOids
	}
	return KindColumn
}

// Part is a dyadic-rational sub-range [LoNum/Den, HiNum/Den) over an
// instruction's anchor input. Den is always a power of two so that nested
// splits remain aligned with every coarser boundary.
type Part struct {
	LoNum, HiNum, Den uint64
}

// FullPart covers the whole input.
func FullPart() Part { return Part{LoNum: 0, HiNum: 1, Den: 1} }

// IsFull reports whether p covers the whole input.
func (p Part) IsFull() bool { return p.LoNum == 0 && p.HiNum == p.Den }

// Split halves p into two aligned sub-ranges.
func (p Part) Split() (Part, Part) {
	lo2, hi2, den2 := p.LoNum*2, p.HiNum*2, p.Den*2
	mid := (lo2 + hi2) / 2
	return Part{LoNum: lo2, HiNum: mid, Den: den2}, Part{LoNum: mid, HiNum: hi2, Den: den2}
}

// SplitN cuts p into n aligned pieces (used by the static heuristic
// parallelizer, which uses fixed equal partitions). n is rounded up to a
// power of two internally to preserve dyadic alignment; the returned slice
// still has exactly n non-empty-by-construction ranges obtained by merging
// surplus leaves, except that when n is already a power of two the pieces
// are exactly equal.
func (p Part) SplitN(n int) []Part {
	if n <= 1 {
		return []Part{p}
	}
	pow := 1
	for pow < n {
		pow *= 2
	}
	den := p.Den * uint64(pow)
	lo := p.LoNum * uint64(pow)
	hi := p.HiNum * uint64(pow)
	span := hi - lo
	out := make([]Part, 0, n)
	for i := 0; i < n; i++ {
		a := lo + span*uint64(i)/uint64(n)
		b := lo + span*uint64(i+1)/uint64(n)
		out = append(out, Part{LoNum: a, HiNum: b, Den: den})
	}
	return out
}

// Resolve maps p onto a concrete input length, returning positional bounds
// [lo, hi). Floor arithmetic keeps boundaries of nested splits coincident.
func (p Part) Resolve(n int) (lo, hi int) {
	un := uint64(n)
	lo = int(un * p.LoNum / p.Den)
	hi = int(un * p.HiNum / p.Den)
	return lo, hi
}

// Before reports partition order: p entirely precedes q.
func (p Part) Before(q Part) bool {
	// Compare LoNum/Den cross-multiplied.
	return p.LoNum*q.Den < q.LoNum*p.Den
}

// PartsTile reports whether the n partitions at(0) … at(n-1), taken in that
// order, tile [0,1) exactly: contiguous under cross-multiplication, no
// overlap, no gap.
func PartsTile(n int, at func(i int) Part) bool {
	if n == 0 {
		return false
	}
	prev := at(0)
	if prev.LoNum != 0 {
		return false
	}
	for i := 1; i < n; i++ {
		cur := at(i)
		if prev.HiNum*cur.Den != cur.LoNum*prev.Den {
			return false
		}
		prev = cur
	}
	return prev.HiNum == prev.Den
}

func (p Part) String() string {
	if p.IsFull() {
		return "full"
	}
	return fmt.Sprintf("[%d/%d,%d/%d)", p.LoNum, p.Den, p.HiNum, p.Den)
}

// Instr is one plan instruction. Args and Rets reference plan variables;
// Aux carries operator parameters; Part restricts the anchor input range.
type Instr struct {
	Op   OpCode
	Args []VarID
	Rets []VarID
	Aux  any
	Part Part
	// Comment is free-form provenance recorded by mutations ("clone of
	// select #4"), surfaced by the pretty-printer.
	Comment string
}

func (in *Instr) clone() *Instr {
	cp := *in
	cp.Args = append([]VarID(nil), in.Args...)
	cp.Rets = append([]VarID(nil), in.Rets...)
	return &cp
}

// Plan is an ordered SSA instruction list. The order is a topological order
// of the dataflow graph (def before use); Validate enforces it.
type Plan struct {
	Instrs []*Instr
	kinds  []Kind
	names  []string // a prefix of the variables: a variable past it is unnamed
}

// New returns an empty plan.
func New() *Plan { return &Plan{} }

// NewVar allocates a fresh variable of kind k. The name is cosmetic; an
// unnamed variable (every one a mutation makes) takes no space in the name
// table.
func (p *Plan) NewVar(k Kind, name string) VarID {
	id := VarID(len(p.kinds))
	p.kinds = append(p.kinds, k)
	if name != "" {
		for len(p.names) < int(id) {
			p.names = append(p.names, "")
		}
		p.names = append(p.names, name)
	}
	return id
}

// NVars returns the number of variables.
func (p *Plan) NVars() int { return len(p.kinds) }

// KindOf returns the kind of v.
func (p *Plan) KindOf(v VarID) Kind { return p.kinds[v] }

// NameOf returns the cosmetic name of v.
func (p *Plan) NameOf(v VarID) string {
	if n := p.name(v); n != "" {
		return n
	}
	return fmt.Sprintf("X_%d", int(v))
}

// name returns v's name as given to NewVar ("" when unnamed).
func (p *Plan) name(v VarID) string {
	if int(v) < len(p.names) {
		return p.names[v]
	}
	return ""
}

// Append adds an instruction at the end.
func (p *Plan) Append(in *Instr) { p.Instrs = append(p.Instrs, in) }

// Derive returns a plan that shares p's instructions and has its own
// instruction list and variable table: the starting point of a mutation.
// An instruction is immutable once it is in a plan, so a mutation replaces
// each instruction it changes with a copy (it never writes a shared one),
// and the derived plan costs O(instructions) pointers instead of a copy of
// every instruction. Clone is the deep copy.
func (p *Plan) Derive() *Plan {
	return &Plan{
		Instrs: append([]*Instr(nil), p.Instrs...),
		// Headroom for the variables the mutation is about to make.
		kinds: append(make([]Kind, 0, len(p.kinds)+len(p.kinds)/2+8), p.kinds...),
		// The name table is never written in place, only appended to (which
		// reallocates at the clipped capacity), so it can be shared.
		names: p.names[:len(p.names):len(p.names)],
	}
}

// Clone deep-copies the plan, for a caller that will write its
// instructions (mutations Derive instead). The copy is slab-allocated — one
// block for the instruction structs, one for every Args/Rets list — so
// cloning costs O(1) allocations instead of 3 per instruction. Appending to a
// cloned instruction's Args reallocates that list out of the slab, exactly
// like any full slice; the slab is never shared between plans.
func (p *Plan) Clone() *Plan {
	cp := &Plan{
		Instrs: make([]*Instr, len(p.Instrs)),
		kinds:  append([]Kind(nil), p.kinds...),
		names:  append([]string(nil), p.names...),
	}
	nvar := 0
	for _, in := range p.Instrs {
		nvar += len(in.Args) + len(in.Rets)
	}
	slab := make([]Instr, len(p.Instrs))
	vars := make([]VarID, 0, nvar)
	for i, in := range p.Instrs {
		slab[i] = *in
		lo := len(vars)
		vars = append(vars, in.Args...)
		slab[i].Args = vars[lo:len(vars):len(vars)]
		lo = len(vars)
		vars = append(vars, in.Rets...)
		slab[i].Rets = vars[lo:len(vars):len(vars)]
		cp.Instrs[i] = &slab[i]
	}
	return cp
}

// Producer returns the index of the instruction producing v, or -1.
func (p *Plan) Producer(v VarID) int {
	for i, in := range p.Instrs {
		for _, r := range in.Rets {
			if r == v {
				return i
			}
		}
	}
	return -1
}

// Consumers returns the indices of instructions consuming v, in plan order.
func (p *Plan) Consumers(v VarID) []int {
	var out []int
	for i, in := range p.Instrs {
		for _, a := range in.Args {
			if a == v {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// Results returns the variables marked as query outputs.
func (p *Plan) Results() []VarID {
	for _, in := range p.Instrs {
		if in.Op == OpResult {
			return append([]VarID(nil), in.Args...)
		}
	}
	return nil
}

// CountOps returns how many instructions have the given opcode — the plan
// statistics of Table 5 (#select operators, #join operators).
func (p *Plan) CountOps(op OpCode) int {
	n := 0
	for _, in := range p.Instrs {
		if in.Op == op {
			n++
		}
	}
	return n
}

// MaxDOP returns the plan's degree of parallelism: the largest number of
// sibling clones any pack combines (1 for a serial plan).
func (p *Plan) MaxDOP() int {
	dop := 1
	for _, in := range p.Instrs {
		if in.Op == OpPack && len(in.Args) > dop {
			dop = len(in.Args)
		}
	}
	return dop
}
