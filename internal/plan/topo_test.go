package plan

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
)

func TestTopoSortRestoresOrder(t *testing.T) {
	p := buildQ6ish()
	// Scramble: move the result instruction first and a bind last.
	n := len(p.Instrs)
	p.Instrs[0], p.Instrs[n-1] = p.Instrs[n-1], p.Instrs[0]
	if err := p.Validate(); err == nil {
		t.Fatal("scrambled plan unexpectedly valid")
	}
	if err := p.TopoSort(); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("TopoSort did not restore def-before-use: %v", err)
	}
}

func TestTopoSortIsStable(t *testing.T) {
	p := buildQ6ish()
	var before []OpCode
	for _, in := range p.Instrs {
		before = append(before, in.Op)
	}
	if err := p.TopoSort(); err != nil {
		t.Fatal(err)
	}
	for i, in := range p.Instrs {
		if in.Op != before[i] {
			t.Fatalf("already-sorted plan reordered at %d: %s -> %s", i, before[i], in.Op)
		}
	}
}

func TestTopoSortDetectsCycle(t *testing.T) {
	p := New()
	a := p.NewVar(KindColumn, "a")
	b := p.NewVar(KindColumn, "b")
	// a needs b, b needs a.
	p.Append(&Instr{Op: OpFetchPos, Args: []VarID{b, b}, Rets: []VarID{a}, Part: FullPart()})
	p.Append(&Instr{Op: OpFetchPos, Args: []VarID{a, a}, Rets: []VarID{b}, Part: FullPart()})
	if err := p.TopoSort(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestTopoSortUnproducedVar(t *testing.T) {
	p := New()
	ghost := p.NewVar(KindColumn, "ghost")
	o := p.NewVar(KindOids, "o")
	p.Append(&Instr{Op: OpSelect, Aux: SelectAux{Pred: algebra.FullRange()},
		Args: []VarID{ghost}, Rets: []VarID{o}, Part: FullPart()})
	if err := p.TopoSort(); err == nil {
		t.Fatal("unproduced variable not detected")
	}
}

func TestTopoSortSelfReference(t *testing.T) {
	p := New()
	v := p.NewVar(KindColumn, "v")
	p.Append(&Instr{Op: OpFetchPos, Args: []VarID{v, v}, Rets: []VarID{v}, Part: FullPart()})
	if err := p.TopoSort(); err == nil {
		t.Fatal("self-reference not detected")
	}
}

// refTopoOrder is the definition TopoSort implements: repeatedly emit the
// earliest-listed instruction all of whose producers have been emitted.
func refTopoOrder(p *Plan) []*Instr {
	producer := p.Producers()
	emitted := make([]bool, len(p.Instrs))
	var out []*Instr
	for len(out) < len(p.Instrs) {
		for i, in := range p.Instrs {
			ready := !emitted[i]
			for _, a := range in.Args {
				if src := producer[a]; !emitted[src] {
					ready = false
				}
			}
			if ready {
				emitted[i] = true
				out = append(out, in)
				break
			}
		}
	}
	return out
}

// TopoSort's output order is pinned: plans shuffled from random DAGs whose
// instructions consume the same producer through several, non-consecutive
// arguments sort exactly as the earliest-ready-first definition says.
func TestTopoSortMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		p := New()
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			in := &Instr{Op: OpPack, Rets: []VarID{p.NewVar(KindColumn, ""), p.NewVar(KindColumn, "")}, Part: FullPart()}
			for k := rng.Intn(5); i > 0 && k > 0; k-- {
				src := p.Instrs[rng.Intn(i)]
				in.Args = append(in.Args, src.Rets[rng.Intn(2)])
			}
			p.Append(in)
		}
		rng.Shuffle(n, func(i, j int) { p.Instrs[i], p.Instrs[j] = p.Instrs[j], p.Instrs[i] })
		want := refTopoOrder(p)
		if err := p.TopoSort(); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if p.Instrs[i] != want[i] {
				t.Fatalf("trial %d: position %d differs from the earliest-ready order", trial, i)
			}
		}
	}
}
