package plan

import (
	"fmt"

	"repro/internal/algebra"
)

// Builder is a typed DSL for composing serial plans, mirroring how the
// paper's system receives an optimal serial MAL plan from the SQL compiler.
// Every method appends an instruction and returns its result variable(s),
// checking kinds eagerly so query definitions fail fast at construction.
type Builder struct {
	p *Plan
}

// NewBuilder returns a builder over a fresh plan.
func NewBuilder() *Builder { return &Builder{p: New()} }

// Plan finalizes and returns the built plan.
func (b *Builder) Plan() *Plan { return b.p }

// emit appends one instruction, allocating its results from op's row of the
// opcode table and holding it against that row (the check Validate runs), so
// a query definition with a wrong kind or arity fails at construction.
func (b *Builder) emit(op OpCode, aux any, args []VarID, names ...string) []VarID {
	retKinds := op.spec().rets
	if op == OpPack && len(args) > 0 {
		retKinds = []Kind{PackKind(b.p.KindOf(args[0]))}
	}
	rets := make([]VarID, len(retKinds))
	for i, k := range retKinds {
		name := ""
		if i < len(names) {
			name = names[i]
		}
		rets[i] = b.p.NewVar(k, name)
	}
	in := &Instr{Op: op, Args: args, Rets: rets, Aux: aux, Part: FullPart()}
	if err := b.p.checkInstr(len(b.p.Instrs), in); err != nil {
		panic(err)
	}
	b.p.Append(in)
	return rets
}

// Bind binds table.column as a column variable.
func (b *Builder) Bind(table, column string) VarID {
	return b.emit(OpBind, BindAux{Table: table, Column: column}, nil, table+"."+column)[0]
}

// Const produces a scalar constant.
func (b *Builder) Const(v int64) VarID {
	return b.emit(OpConst, ConstAux{Value: v}, nil, fmt.Sprintf("c%d", v))[0]
}

// Select scans col with pred, producing candidates.
func (b *Builder) Select(col VarID, pred algebra.Range) VarID {
	return b.emit(OpSelect, SelectAux{Pred: pred}, []VarID{col})[0]
}

// SelectCand refines cands against col with pred.
func (b *Builder) SelectCand(col, cands VarID, pred algebra.Range) VarID {
	return b.emit(OpSelectCand, SelectAux{Pred: pred}, []VarID{col, cands})[0]
}

// LikeSelect scans a string column with a LIKE pattern.
func (b *Builder) LikeSelect(col VarID, pattern string, kind algebra.LikeKind, anti bool) VarID {
	return b.emit(OpLikeSelect, LikeAux{Pattern: pattern, Kind: kind, Anti: anti},
		[]VarID{col})[0]
}

// Fetch reconstructs tuples: values of col at oids.
func (b *Builder) Fetch(oids, col VarID) VarID {
	return b.emit(OpFetch, nil, []VarID{oids, col})[0]
}

// FetchPos gathers col values at zero-based positions.
func (b *Builder) FetchPos(pos, col VarID) VarID {
	return b.emit(OpFetchPos, nil, []VarID{pos, col})[0]
}

// Join hash-joins outer against inner, returning (louter, rinner) oids.
func (b *Builder) Join(outer, inner VarID) (VarID, VarID) {
	rets := b.emit(OpJoin, nil, []VarID{outer, inner})
	return rets[0], rets[1]
}

// CalcVV computes a op b element-wise.
func (b *Builder) CalcVV(op algebra.CalcOp, a, c VarID) VarID {
	return b.emit(OpCalcVV, CalcAux{Op: op}, []VarID{a, c})[0]
}

// CalcSV computes (scalar op v) when scalarLeft, else (v op scalar).
func (b *Builder) CalcSV(op algebra.CalcOp, scalar int64, v VarID, scalarLeft bool) VarID {
	return b.emit(OpCalcSV, CalcAux{Op: op, Scalar: scalar, ScalarLeft: scalarLeft},
		[]VarID{v})[0]
}

// CalcSSV computes (s op v) when scalarLeft, else (v op s), with s a scalar
// variable.
func (b *Builder) CalcSSV(op algebra.CalcOp, s, v VarID, scalarLeft bool) VarID {
	return b.emit(OpCalcSSV, CalcAux{Op: op, ScalarLeft: scalarLeft},
		[]VarID{s, v})[0]
}

// CalcSS computes a op b over scalars.
func (b *Builder) CalcSS(op algebra.CalcOp, a, c VarID) VarID {
	return b.emit(OpCalcSS, CalcAux{Op: op}, []VarID{a, c})[0]
}

// GroupBy groups keys.
func (b *Builder) GroupBy(keys VarID) VarID {
	return b.emit(OpGroupBy, nil, []VarID{keys})[0]
}

// GroupKeys extracts distinct keys from a groups value.
func (b *Builder) GroupKeys(groups VarID) VarID {
	return b.emit(OpGroupKeys, nil, []VarID{groups})[0]
}

// AggrGrouped aggregates vals per group.
func (b *Builder) AggrGrouped(f algebra.AggrFunc, vals, groups VarID) VarID {
	return b.emit(OpAggrGrouped, AggrAux{Func: f}, []VarID{vals, groups})[0]
}

// Aggr computes a scalar aggregate.
func (b *Builder) Aggr(f algebra.AggrFunc, vals VarID) VarID {
	return b.emit(OpAggr, AggrAux{Func: f}, []VarID{vals})[0]
}

// Sort sorts col, returning (sorted, permutation oids).
func (b *Builder) Sort(col VarID, desc bool) (VarID, VarID) {
	rets := b.emit(OpSort, SortAux{Desc: desc}, []VarID{col})
	return rets[0], rets[1]
}

// Pack combines values with the exchange union operator. All inputs must
// share a kind; oids pack to oids, columns and scalars pack to a column.
// Serial plans use it for union-style queries (e.g. TPC-H Q19's OR arms).
func (b *Builder) Pack(vars ...VarID) VarID {
	return b.emit(OpPack, nil, vars)[0]
}

// Result marks the query outputs.
func (b *Builder) Result(vars ...VarID) {
	b.emit(OpResult, nil, vars)
}
