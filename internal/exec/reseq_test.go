package exec

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Partitioned intermediates must keep global alignment: a select over a
// partitioned calc/fetch output has to produce absolute row ids usable
// against base columns (§2.3 alignment; the exec layer re-seqs fetch clones
// and algebra inherits view heads for calc).
func TestPartitionedIntermediateAlignment(t *testing.T) {
	n := 8_000
	a := make([]int64, n)
	c := make([]int64, n)
	for i := 0; i < n; i++ {
		a[i] = int64(i)
		c[i] = int64(i * 2)
	}
	tab := storage.NewTable("t")
	tab.MustAddColumn(storage.NewIntColumn("a", a))
	tab.MustAddColumn(storage.NewIntColumn("c", c))
	cat := storage.NewCatalog()
	cat.MustAdd(tab)

	// Serial: diff = a - (a) = 0... use c - a = i; select(diff >= 6000)
	// then fetch from base column c at the resulting GLOBAL row ids.
	build := func(split bool) *plan.Plan {
		b := plan.NewBuilder()
		av := b.Bind("t", "a")
		cv := b.Bind("t", "c")
		diff := b.CalcVV(algebra.CalcSub, cv, av) // = i
		sel := b.Select(diff, algebra.AtLeast(6000))
		out := b.Fetch(sel, cv)
		sum := b.Aggr(algebra.AggrSum, out)
		b.Result(sum)
		p := b.Plan()
		if split {
			// Partition the calc in two by hand (what the basic mutation
			// does): its clones' outputs must stay globally aligned.
			for i, in := range p.Instrs {
				if in.Op == plan.OpCalcVV {
					l, r := plan.FullPart().Split()
					clone := &plan.Instr{Op: in.Op, Args: append([]plan.VarID(nil), in.Args...),
						Rets: []plan.VarID{p.NewVar(plan.KindColumn, "")}, Aux: in.Aux, Part: r}
					in.Part = l
					packed := p.NewVar(plan.KindColumn, "")
					pk := &plan.Instr{Op: plan.OpPack, Args: []plan.VarID{in.Rets[0], clone.Rets[0]},
						Rets: []plan.VarID{packed}, Part: plan.FullPart()}
					// Rewire the select to the pack.
					for _, in2 := range p.Instrs {
						if in2.Op == plan.OpSelect {
							in2.Args[0] = packed
						}
					}
					p.Instrs = append(p.Instrs[:i+1], append([]*plan.Instr{clone, pk}, p.Instrs[i+1:]...)...)
					break
				}
			}
			if err := p.TopoSort(); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}

	eng := NewEngine(cat, testMachine(), cost.Default())
	want, _, err := eng.Execute(build(false))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := eng.Execute(build(true))
	if err != nil {
		t.Fatal(err)
	}
	if !ResultsEqual(want, got) {
		t.Fatalf("partitioned calc misaligned: %v vs %v", got, want)
	}
	if want[0].Scalar == 0 {
		t.Fatal("degenerate test: empty selection")
	}
	// The same split plan through the copying exchange (seed behavior) must
	// agree with the zero-copy default bit for bit.
	gotCopy, _, err := eng.ExecuteOpts(build(true), JobOptions{CopyExchange: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ResultsEqual(want, gotCopy) {
		t.Fatalf("copying exchange misaligned: %v vs %v", gotCopy, want)
	}
}

func TestEngineVirtualTimeAdvancesAcrossExecutions(t *testing.T) {
	cat := testCatalog(5_000)
	eng := NewEngine(cat, testMachine(), cost.Default())
	_, p1, err := eng.Execute(q6Plan())
	if err != nil {
		t.Fatal(err)
	}
	_, p2, err := eng.Execute(q6Plan())
	if err != nil {
		t.Fatal(err)
	}
	if p2.StartNs < p1.EndNs {
		t.Fatalf("second execution started at %f before first ended %f", p2.StartNs, p1.EndNs)
	}
}

func TestEmptyProfileTomograph(t *testing.T) {
	p := &Profile{}
	if got := p.Tomograph(10); got == "" {
		t.Fatal("empty profile tomograph empty string")
	}
	if p.Utilization() != 0 || p.TotalBusyNs() != 0 {
		t.Fatal("empty profile has nonzero metrics")
	}
	if i, d := p.MostExpensive(); i != -1 || d != 0 {
		t.Fatalf("MostExpensive on empty = (%d,%f)", i, d)
	}
}
