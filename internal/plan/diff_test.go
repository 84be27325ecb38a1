package plan

import (
	"testing"

	"repro/internal/algebra"
)

// diffBasePlan builds select → fetch → aggr → result over one bound column.
func diffBasePlan() *Plan {
	b := NewBuilder()
	col := b.Bind("t", "v")
	sel := b.Select(col, algebra.AtLeast(10))
	vals := b.Fetch(sel, col)
	sum := b.Aggr(algebra.AggrSum, vals)
	b.Result(sum)
	return b.Plan()
}

func TestComputeDiffIdentity(t *testing.T) {
	p := diffBasePlan()
	cp := p.Clone()
	d := ComputeDiff(p, cp)
	for ci, pi := range d.ParentOf {
		if int(pi) != ci {
			t.Fatalf("instr %d matched to %d on an unchanged clone", ci, pi)
		}
	}
}

// A mutation-shaped child: the fetch is replaced by two sliced clones and a
// pack (fresh variables), the aggregate is rewired to the pack. Everything
// upstream of the mutation must match; the mutation products and every
// instruction consuming them must not.
func TestComputeDiffMutationShape(t *testing.T) {
	p := diffBasePlan()
	cp := p.Clone()
	// Locate the fetch and the aggr.
	var fetchIdx, aggrIdx int
	for i, in := range cp.Instrs {
		switch in.Op {
		case OpFetch:
			fetchIdx = i
		case OpAggr:
			aggrIdx = i
		}
	}
	fetch := cp.Instrs[fetchIdx]
	parts := FullPart().SplitN(2)
	cloneRets := make([]VarID, 2)
	newInstrs := make([]*Instr, 0, len(cp.Instrs)+2)
	for i, in := range cp.Instrs {
		if i == fetchIdx {
			for k, pt := range parts {
				cloneRets[k] = cp.NewVar(KindColumn, "")
				newInstrs = append(newInstrs, &Instr{Op: OpFetch, Args: append([]VarID(nil), fetch.Args...),
					Rets: []VarID{cloneRets[k]}, Part: pt})
			}
			continue
		}
		newInstrs = append(newInstrs, in)
	}
	packed := cp.NewVar(KindColumn, "")
	// Insert the pack before the aggregate and rewire it.
	out := make([]*Instr, 0, len(newInstrs)+1)
	for _, in := range newInstrs {
		if in == cp.Instrs[aggrIdx] {
			out = append(out, &Instr{Op: OpPack, Args: append([]VarID(nil), cloneRets...),
				Rets: []VarID{packed}, Part: FullPart()})
			in.Args = []VarID{packed}
		}
		out = append(out, in)
	}
	cp.Instrs = out
	if err := cp.Validate(); err != nil {
		t.Fatalf("mutated child invalid: %v", err)
	}

	d := ComputeDiff(p, cp)
	for ci, in := range cp.Instrs {
		pi := d.ParentOf[ci]
		switch in.Op {
		case OpBind, OpSelect:
			if pi < 0 {
				t.Fatalf("upstream %s should match, got -1", in.Op)
			}
			if !instrEqual(in, p.Instrs[pi]) {
				t.Fatalf("%s matched to a non-identical instruction", in.Op)
			}
		case OpFetch, OpPack:
			if pi >= 0 {
				t.Fatalf("mutated %s matched parent %d", in.Op, pi)
			}
		case OpAggr, OpResult:
			// The aggr's args changed (OpAggr) or its producer subtree did
			// (OpResult consumes the rewired aggregate's output... the result
			// var itself is unchanged but produced by an unmatched instr).
			if in.Op == OpAggr && pi >= 0 {
				t.Fatalf("rewired aggr matched parent %d", pi)
			}
			if in.Op == OpResult && pi >= 0 {
				t.Fatalf("result over a mutated subtree matched parent %d", pi)
			}
		}
	}
	matched := 0
	for ci, pi := range d.ParentOf {
		if pi >= 0 {
			matched++
		}
		// The removed fetch must have no child image.
		if int(pi) == fetchIdx {
			t.Fatalf("removed fetch still mapped to child %d", ci)
		}
	}
	if matched == 0 || matched >= len(cp.Instrs) {
		t.Fatalf("expected a partial match, got %d of %d", matched, len(cp.Instrs))
	}
}
