package plan

import (
	"strings"
	"testing"

	"repro/internal/algebra"
)

// opCase spells out, independently of opSpecs, the minimal valid instruction
// of one opcode.
type opCase struct {
	op   OpCode
	args []Kind
	rets []Kind
	aux  any
}

var opCases = []opCase{
	{OpBind, nil, []Kind{KindColumn}, BindAux{Table: "t", Column: "c"}},
	{OpConst, nil, []Kind{KindScalar}, ConstAux{Value: 1}},
	{OpSelect, []Kind{KindColumn}, []Kind{KindOids}, SelectAux{Pred: algebra.Between(1, 2)}},
	{OpSelectCand, []Kind{KindColumn, KindOids}, []Kind{KindOids}, SelectAux{Pred: algebra.Between(1, 2)}},
	{OpLikeSelect, []Kind{KindColumn}, []Kind{KindOids}, LikeAux{Pattern: "x"}},
	{OpFetch, []Kind{KindOids, KindColumn}, []Kind{KindColumn}, nil},
	{OpJoin, []Kind{KindColumn, KindColumn}, []Kind{KindOids, KindOids}, nil},
	{OpFetchPos, []Kind{KindOids, KindColumn}, []Kind{KindColumn}, nil},
	{OpCalcVV, []Kind{KindColumn, KindColumn}, []Kind{KindColumn}, CalcAux{Op: algebra.CalcAdd}},
	{OpCalcSV, []Kind{KindColumn}, []Kind{KindColumn}, CalcAux{Op: algebra.CalcAdd}},
	{OpCalcSSV, []Kind{KindScalar, KindColumn}, []Kind{KindColumn}, CalcAux{Op: algebra.CalcAdd}},
	{OpCalcSS, []Kind{KindScalar, KindScalar}, []Kind{KindScalar}, CalcAux{Op: algebra.CalcAdd}},
	{OpGroupBy, []Kind{KindColumn}, []Kind{KindGroups}, nil},
	{OpGroupKeys, []Kind{KindGroups}, []Kind{KindColumn}, nil},
	{OpAggrGrouped, []Kind{KindColumn, KindGroups}, []Kind{KindColumn}, AggrAux{Func: algebra.AggrSum}},
	{OpAggr, []Kind{KindColumn}, []Kind{KindScalar}, AggrAux{Func: algebra.AggrSum}},
	{OpMergeAggr, []Kind{KindColumn}, []Kind{KindScalar}, AggrAux{Func: algebra.AggrSum}},
	{OpGroupMerge, []Kind{KindColumn, KindColumn}, []Kind{KindColumn, KindColumn}, AggrAux{Func: algebra.AggrSum}},
	{OpPack, []Kind{KindOids, KindOids}, []Kind{KindOids}, nil},
	{OpPack, []Kind{KindColumn, KindColumn}, []Kind{KindColumn}, nil},
	{OpPack, []Kind{KindScalar, KindScalar}, []Kind{KindColumn}, nil},
	{OpSort, []Kind{KindColumn}, []Kind{KindColumn, KindOids}, SortAux{}},
	{OpMergeSorted, []Kind{KindColumn, KindColumn}, []Kind{KindColumn}, SortAux{}},
	{OpResult, []Kind{KindColumn, KindScalar}, nil, nil},
}

// build renders c as a plan: one defined variable per kind to draw
// arguments from, then the instruction under test, which mutate may corrupt.
func (c opCase) build(mutate func(p *Plan, in *Instr, pool [KindGroups + 1]VarID)) *Plan {
	b := NewBuilder()
	var pool [KindGroups + 1]VarID
	pool[KindColumn] = b.Bind("t", "c")
	pool[KindOids] = b.Select(pool[KindColumn], algebra.Between(1, 2))
	pool[KindScalar] = b.Const(1)
	pool[KindGroups] = b.GroupBy(pool[KindColumn])
	p := b.Plan()
	in := &Instr{Op: c.op, Aux: c.aux, Part: FullPart()}
	for _, k := range c.args {
		in.Args = append(in.Args, pool[k])
	}
	for _, k := range c.rets {
		in.Rets = append(in.Rets, p.NewVar(k, ""))
	}
	p.Append(in)
	if mutate != nil {
		mutate(p, in, pool)
	}
	return p
}

// Every opcode is validated the same way, from its table row: the minimal
// instruction passes, and each single corruption of arity, kinds, results or
// aux is rejected by the per-instruction check.
func TestValidateEveryOpcode(t *testing.T) {
	type corruption = func(p *Plan, in *Instr, pool [KindGroups + 1]VarID)
	seen := map[OpCode]bool{}
	for _, c := range opCases {
		c := c
		seen[c.op] = true
		if err := c.build(nil).Validate(); err != nil {
			t.Errorf("%s: minimal instruction rejected: %v", c.op, err)
			continue
		}
		corrupt := map[string]corruption{
			"extra result": func(p *Plan, in *Instr, _ [KindGroups + 1]VarID) {
				in.Rets = append(in.Rets, p.NewVar(KindColumn, ""))
			},
			"aux of another operator": func(_ *Plan, in *Instr, _ [KindGroups + 1]VarID) {
				if in.Aux = any(BindAux{}); c.op == OpBind {
					in.Aux = ConstAux{}
				}
			},
		}
		if c.aux != nil {
			corrupt["nil aux"] = func(_ *Plan, in *Instr, _ [KindGroups + 1]VarID) { in.Aux = nil }
		}
		if len(c.rets) > 0 {
			corrupt["dropped result"] = func(_ *Plan, in *Instr, _ [KindGroups + 1]VarID) {
				in.Rets = in.Rets[:len(in.Rets)-1]
			}
			corrupt["result of another kind"] = func(p *Plan, in *Instr, _ [KindGroups + 1]VarID) {
				in.Rets[0] = p.NewVar((c.rets[0]+1)%(KindGroups+1), "")
			}
		}
		arity := c.op.spec().arity
		if arity == fixedArgs {
			corrupt["extra argument"] = func(_ *Plan, in *Instr, pool [KindGroups + 1]VarID) {
				in.Args = append(in.Args, pool[KindColumn])
			}
			if len(c.args) > 0 {
				corrupt["dropped argument"] = func(_ *Plan, in *Instr, _ [KindGroups + 1]VarID) {
					in.Args = in.Args[:len(in.Args)-1]
				}
			}
		}
		if arity == oneKindOf {
			corrupt["no arguments"] = func(_ *Plan, in *Instr, _ [KindGroups + 1]VarID) { in.Args = nil }
		}
		if arity != anyArgs && len(c.args) > 0 {
			// For a pack this mixes kinds; groups are no operator's first
			// argument but groupkeys'.
			corrupt["argument of another kind"] = func(_ *Plan, in *Instr, pool [KindGroups + 1]VarID) {
				if in.Args[0] = pool[KindGroups]; c.args[0] == KindGroups {
					in.Args[0] = pool[KindColumn]
				}
			}
		}
		for name, mutate := range corrupt {
			err := c.build(mutate).Validate()
			if err == nil {
				t.Errorf("%s: %s validates", c.op, name)
			} else if !strings.Contains(err.Error(), "("+c.op.String()+"): ") {
				t.Errorf("%s: %s rejected by the wrong check: %v", c.op, name, err)
			}
		}
	}
	for op := OpBind; op <= OpResult; op++ {
		if !seen[op] {
			t.Errorf("%s has no case", op)
		}
	}
}

// A plan has one result marker: exec publishes the last one's values,
// Results() reports the first's, and Decode lets outsiders hand us two.
func TestValidateRejectsSecondResult(t *testing.T) {
	b := NewBuilder()
	c := b.Bind("t", "c")
	b.Result(c)
	b.Result(c)
	p := b.Plan()
	if err := p.Validate(); err == nil {
		t.Fatal("plan with two result markers validates")
	}
	if _, err := Decode(Encode(p)); err != nil {
		t.Fatalf("two results are a Validate matter, not a Decode one: %v", err)
	}
}
