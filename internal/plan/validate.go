package plan

import (
	"fmt"
	"slices"
)

// Validate checks structural invariants: def-before-use ordering (the
// instruction list must be a topological order of the dataflow graph), SSA
// single assignment, at most one result marker, and per instruction the
// arity, kinds, aux and partition sanity its opSpecs row demands. Mutations
// call Validate on their output in tests; the engine calls it once per plan
// before execution.
func (p *Plan) Validate() error {
	defined := make([]bool, p.NVars())
	results := 0
	for i, in := range p.Instrs {
		for _, a := range in.Args {
			if int(a) >= p.NVars() {
				return fmt.Errorf("plan: instr %d (%s) references unknown var %d", i, in.Op, int(a))
			}
			if !defined[a] {
				return fmt.Errorf("plan: instr %d (%s) uses %s before definition", i, in.Op, p.NameOf(a))
			}
		}
		for _, r := range in.Rets {
			if int(r) >= p.NVars() {
				return fmt.Errorf("plan: instr %d (%s) returns unknown var %d", i, in.Op, int(r))
			}
			if defined[r] {
				return fmt.Errorf("plan: instr %d (%s) reassigns %s (SSA violation)", i, in.Op, p.NameOf(r))
			}
			defined[r] = true
		}
		if in.Op == OpResult {
			// The executor publishes the last marker's values, Results()
			// reports the first's: a second one has no meaning.
			if results++; results > 1 {
				return fmt.Errorf("plan: instr %d (%s): second result marker", i, in.Op)
			}
		}
		if err := p.checkInstr(i, in); err != nil {
			return err
		}
	}
	return nil
}

// checkInstr holds in against its opcode's table row.
func (p *Plan) checkInstr(i int, in *Instr) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("plan: instr %d (%s): %s", i, in.Op, fmt.Sprintf(format, args...))
	}
	spec := in.Op.spec()
	if spec.name == "" {
		return fail("unknown opcode")
	}
	if in.Part.Den == 0 {
		return fail("zero partition denominator")
	}
	if in.Part.LoNum > in.Part.HiNum || in.Part.HiNum > in.Part.Den {
		return fail("malformed partition %s", in.Part)
	}
	if !in.Part.IsFull() && spec.slice == nil {
		return fail("partition %s on non-partitionable operator", in.Part)
	}
	if k, ok := auxKindOf(in.Aux); !ok || k != spec.aux {
		return fail("aux is %T, operator carries %s", in.Aux, auxNames[spec.aux])
	}

	rets := spec.rets
	switch spec.arity {
	case fixedArgs:
		if len(in.Args) != len(spec.args) {
			return fail("want %d args, got %d", len(spec.args), len(in.Args))
		}
		for j, k := range spec.args {
			if p.KindOf(in.Args[j]) != k {
				return fail("arg %d is %s, want %s", j, p.KindOf(in.Args[j]), k)
			}
		}
	case oneKindOf:
		if len(in.Args) == 0 {
			return fail("%s with no inputs", in.Op)
		}
		first := p.KindOf(in.Args[0])
		if !slices.Contains(spec.args, first) {
			return fail("%s over %s", in.Op, first)
		}
		for _, a := range in.Args {
			if p.KindOf(a) != first {
				return fail("%s over mixed kinds %s and %s", in.Op, first, p.KindOf(a))
			}
		}
		if in.Op == OpPack {
			rets = []Kind{PackKind(first)}
		}
	}
	if len(in.Rets) != len(rets) {
		return fail("want %d rets, got %d", len(rets), len(in.Rets))
	}
	for j, k := range rets {
		if p.KindOf(in.Rets[j]) != k {
			return fail("ret %d is %s, want %s", j, p.KindOf(in.Rets[j]), k)
		}
	}
	return nil
}
