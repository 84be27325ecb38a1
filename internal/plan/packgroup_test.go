package plan

import (
	"testing"

	"repro/internal/algebra"
)

// buildSlicedGroup returns a plan shaped like the basic mutation's output:
// one select, a fetch cloned over nParts tiling partitions of the select's
// oids, and a pack of the clone results.
func buildSlicedGroup(nParts int) (*Plan, int) {
	p := New()
	col := p.NewVar(KindColumn, "col")
	p.Append(&Instr{Op: OpBind, Aux: BindAux{Table: "t", Column: "c"}, Rets: []VarID{col}, Part: FullPart()})
	oids := p.NewVar(KindOids, "oids")
	p.Append(&Instr{Op: OpSelect, Aux: SelectAux{Pred: algebra.AtLeast(1)}, Args: []VarID{col}, Rets: []VarID{oids}, Part: FullPart()})
	parts := FullPart().SplitN(nParts)
	cloneRets := make([]VarID, nParts)
	for i, pt := range parts {
		cloneRets[i] = p.NewVar(KindColumn, "")
		p.Append(&Instr{Op: OpFetch, Args: []VarID{oids, col}, Rets: []VarID{cloneRets[i]}, Part: pt})
	}
	packed := p.NewVar(KindColumn, "packed")
	packIdx := len(p.Instrs)
	p.Append(&Instr{Op: OpPack, Args: cloneRets, Rets: []VarID{packed}, Part: FullPart()})
	p.Append(&Instr{Op: OpResult, Args: []VarID{packed}, Part: FullPart()})
	return p, packIdx
}

func TestPackGroupsSliced(t *testing.T) {
	p, packIdx := buildSlicedGroup(4)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	groups := p.PackGroups()
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(groups))
	}
	g := groups[0]
	if g.Pack != packIdx || len(g.Clones) != 4 {
		t.Fatalf("group = %+v", g)
	}
	for i, ci := range g.Clones {
		if p.Instrs[packIdx].Args[i] != p.Instrs[ci].Rets[0] {
			t.Fatalf("clone %d out of pack-argument order", i)
		}
	}
}

func TestPackGroupsPropagated(t *testing.T) {
	// The medium mutation's residue: full-range fetch clones over distinct
	// oid inputs, sharing the target, packed in partition order.
	p := New()
	col := p.NewVar(KindColumn, "col")
	p.Append(&Instr{Op: OpBind, Aux: BindAux{Table: "t", Column: "c"}, Rets: []VarID{col}, Part: FullPart()})
	parts := FullPart().SplitN(2)
	cloneRets := make([]VarID, 2)
	for i, pt := range parts {
		oids := p.NewVar(KindOids, "")
		p.Append(&Instr{Op: OpSelect, Aux: SelectAux{Pred: algebra.AtLeast(1)}, Args: []VarID{col}, Rets: []VarID{oids}, Part: pt})
		cloneRets[i] = p.NewVar(KindColumn, "")
		p.Append(&Instr{Op: OpFetch, Args: []VarID{oids, col}, Rets: []VarID{cloneRets[i]}, Part: FullPart()})
	}
	packed := p.NewVar(KindColumn, "packed")
	packIdx := len(p.Instrs)
	p.Append(&Instr{Op: OpPack, Args: cloneRets, Rets: []VarID{packed}, Part: FullPart()})
	p.Append(&Instr{Op: OpResult, Args: []VarID{packed}, Part: FullPart()})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	groups := p.PackGroups()
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(groups))
	}
	if g := groups[0]; g.Pack != packIdx || len(g.Clones) != 2 {
		t.Fatalf("group = %+v", g)
	}
}

func TestPackGroupsRejectsUnsafeShapes(t *testing.T) {
	// Partition-order violation: pack args swapped against partition order.
	p, packIdx := buildSlicedGroup(2)
	pk := p.Instrs[packIdx]
	pk.Args[0], pk.Args[1] = pk.Args[1], pk.Args[0]
	if got := p.PackGroups(); len(got) != 0 {
		t.Fatalf("out-of-order pack accepted: %+v", got)
	}

	// Gap in the tiling: drop the middle clone of a 4-way split.
	p, packIdx = buildSlicedGroup(4)
	pk = p.Instrs[packIdx]
	pk.Args = []VarID{pk.Args[0], pk.Args[2], pk.Args[3]}
	if got := p.PackGroups(); len(got) != 0 {
		t.Fatalf("gapped pack accepted: %+v", got)
	}

	// Duplicate input: one clone packed twice.
	p, packIdx = buildSlicedGroup(2)
	pk = p.Instrs[packIdx]
	pk.Args = []VarID{pk.Args[0], pk.Args[0]}
	if got := p.PackGroups(); len(got) != 0 {
		t.Fatalf("duplicated pack input accepted: %+v", got)
	}

	// Non-materializing producers: an oid pack over select clones is never a
	// group (select output sizes are data-dependent).
	p = New()
	col := p.NewVar(KindColumn, "col")
	p.Append(&Instr{Op: OpBind, Aux: BindAux{Table: "t", Column: "c"}, Rets: []VarID{col}, Part: FullPart()})
	l, r := FullPart().Split()
	s1, s2 := p.NewVar(KindOids, ""), p.NewVar(KindOids, "")
	p.Append(&Instr{Op: OpSelect, Aux: SelectAux{Pred: algebra.AtLeast(1)}, Args: []VarID{col}, Rets: []VarID{s1}, Part: l})
	p.Append(&Instr{Op: OpSelect, Aux: SelectAux{Pred: algebra.AtLeast(1)}, Args: []VarID{col}, Rets: []VarID{s2}, Part: r})
	packed := p.NewVar(KindOids, "packed")
	p.Append(&Instr{Op: OpPack, Args: []VarID{s1, s2}, Rets: []VarID{packed}, Part: FullPart()})
	p.Append(&Instr{Op: OpResult, Args: []VarID{packed}, Part: FullPart()})
	if got := p.PackGroups(); len(got) != 0 {
		t.Fatalf("oid pack accepted as group: %+v", got)
	}
}
