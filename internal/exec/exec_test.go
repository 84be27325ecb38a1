package exec

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
)

func testMachine() sim.Config {
	return sim.Config{
		Name:               "test",
		Sockets:            2,
		PhysCoresPerSocket: 4,
		SMT:                2,
		SpeedFactor:        1,
		L3PerSocket:        64 << 10,
		BWPerSocket:        1e9,
		SMTFactor:          0.55,
		NUMAFactor:         1.2,
	}
}

// testCatalog builds a small lineitem-like table with deterministic values.
func testCatalog(n int) *storage.Catalog {
	ship := make([]int64, n)
	disc := make([]int64, n)
	price := make([]int64, n)
	qty := make([]int64, n)
	for i := 0; i < n; i++ {
		ship[i] = int64(i % 365)
		disc[i] = int64(i % 11)
		price[i] = int64(100 + i%900)
		qty[i] = int64(1 + i%50)
	}
	t := storage.NewTable("lineitem")
	t.MustAddColumn(storage.NewIntColumn("l_shipdate", ship))
	t.MustAddColumn(storage.NewIntColumn("l_discount", disc))
	t.MustAddColumn(storage.NewIntColumn("l_extendedprice", price))
	t.MustAddColumn(storage.NewIntColumn("l_quantity", qty))
	cat := storage.NewCatalog()
	cat.MustAdd(t)
	return cat
}

// q6Plan builds the TPC-H-Q6-shaped plan used across exec tests.
func q6Plan() *plan.Plan {
	b := plan.NewBuilder()
	ship := b.Bind("lineitem", "l_shipdate")
	disc := b.Bind("lineitem", "l_discount")
	price := b.Bind("lineitem", "l_extendedprice")
	s1 := b.Select(ship, algebra.Between(100, 200))
	s2 := b.SelectCand(disc, s1, algebra.Between(5, 7))
	d := b.Fetch(s2, disc)
	pr := b.Fetch(s2, price)
	rev := b.CalcVV(algebra.CalcMul, pr, d)
	sum := b.Aggr(algebra.AggrSum, rev)
	b.Result(sum)
	return b.Plan()
}

// q6Expected computes the expected Q6 answer directly.
func q6Expected(cat *storage.Catalog) int64 {
	t := cat.MustTable("lineitem")
	ship := t.MustColumn("l_shipdate").Values()
	disc := t.MustColumn("l_discount").Values()
	price := t.MustColumn("l_extendedprice").Values()
	var sum int64
	for i := range ship {
		if ship[i] >= 100 && ship[i] <= 200 && disc[i] >= 5 && disc[i] <= 7 {
			sum += price[i] * disc[i]
		}
	}
	return sum
}

func TestExecuteSerialPlanCorrectness(t *testing.T) {
	cat := testCatalog(10_000)
	eng := NewEngine(cat, testMachine(), cost.Default())
	res, prof, err := eng.Execute(q6Plan())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Kind != plan.KindScalar {
		t.Fatalf("results = %v", res)
	}
	if want := q6Expected(cat); res[0].Scalar != want {
		t.Fatalf("Q6 = %d, want %d", res[0].Scalar, want)
	}
	if prof.Makespan() <= 0 {
		t.Fatal("zero makespan")
	}
	if len(prof.Ops) != 10 {
		t.Fatalf("profiled %d ops, want 10", len(prof.Ops))
	}
}

func TestExecutePartitionedPlanMatchesSerial(t *testing.T) {
	cat := testCatalog(10_000)
	eng := NewEngine(cat, testMachine(), cost.Default())
	serialRes, _, err := eng.Execute(q6Plan())
	if err != nil {
		t.Fatal(err)
	}

	// Hand-build a parallelized plan: the first select split in two with a
	// pack combining the clone outputs (the basic mutation's shape).
	b := plan.NewBuilder()
	ship := b.Bind("lineitem", "l_shipdate")
	disc := b.Bind("lineitem", "l_discount")
	price := b.Bind("lineitem", "l_extendedprice")
	s1 := b.Select(ship, algebra.Between(100, 200))
	s1b := b.Select(ship, algebra.Between(100, 200))
	p := b.Plan()
	left, right := plan.FullPart().Split()
	p.Instrs[3].Part = left
	p.Instrs[4].Part = right
	// Continue building on the raw plan: pack + rest.
	packed := p.NewVar(plan.KindOids, "packed")
	p.Append(&plan.Instr{Op: plan.OpPack, Args: []plan.VarID{s1, s1b}, Rets: []plan.VarID{packed}, Part: plan.FullPart()})
	s2 := p.NewVar(plan.KindOids, "s2")
	p.Append(&plan.Instr{Op: plan.OpSelectCand, Aux: plan.SelectAux{Pred: algebra.Between(5, 7)},
		Args: []plan.VarID{disc, packed}, Rets: []plan.VarID{s2}, Part: plan.FullPart()})
	d := p.NewVar(plan.KindColumn, "d")
	p.Append(&plan.Instr{Op: plan.OpFetch, Args: []plan.VarID{s2, disc}, Rets: []plan.VarID{d}, Part: plan.FullPart()})
	pr := p.NewVar(plan.KindColumn, "pr")
	p.Append(&plan.Instr{Op: plan.OpFetch, Args: []plan.VarID{s2, price}, Rets: []plan.VarID{pr}, Part: plan.FullPart()})
	rev := p.NewVar(plan.KindColumn, "rev")
	p.Append(&plan.Instr{Op: plan.OpCalcVV, Aux: plan.CalcAux{Op: algebra.CalcMul},
		Args: []plan.VarID{pr, d}, Rets: []plan.VarID{rev}, Part: plan.FullPart()})
	sum := p.NewVar(plan.KindScalar, "sum")
	p.Append(&plan.Instr{Op: plan.OpAggr, Aux: plan.AggrAux{Func: algebra.AggrSum},
		Args: []plan.VarID{rev}, Rets: []plan.VarID{sum}, Part: plan.FullPart()})
	p.Append(&plan.Instr{Op: plan.OpResult, Args: []plan.VarID{sum}, Part: plan.FullPart()})

	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	eng2 := NewEngine(cat, testMachine(), cost.Default())
	parRes, prof, err := eng2.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if !ResultsEqual(serialRes, parRes) {
		t.Fatalf("partitioned result %v != serial %v", parRes, serialRes)
	}
	if prof.Makespan() <= 0 {
		t.Fatal("no makespan")
	}
}

func TestProfilerMostExpensive(t *testing.T) {
	cat := testCatalog(50_000)
	eng := NewEngine(cat, testMachine(), cost.Default())
	_, prof, err := eng.Execute(q6Plan())
	if err != nil {
		t.Fatal(err)
	}
	idx, dur := prof.MostExpensive()
	if idx < 0 || dur <= 0 {
		t.Fatalf("MostExpensive = (%d, %f)", idx, dur)
	}
	// The full-table select over l_shipdate (instr 3) dominates this plan:
	// it is the only full scan; everything downstream is selectivity-reduced.
	if op := q6Plan().Instrs[idx].Op; op != plan.OpSelect {
		t.Fatalf("most expensive op = %s, want select", op)
	}
}

func TestProfileUtilizationBounds(t *testing.T) {
	cat := testCatalog(20_000)
	eng := NewEngine(cat, testMachine(), cost.Default())
	_, prof, err := eng.Execute(q6Plan())
	if err != nil {
		t.Fatal(err)
	}
	u := prof.Utilization()
	if u <= 0 || u > 1 {
		t.Fatalf("utilization = %f", u)
	}
	// A serial plan on a 16-thread machine cannot exceed 1/16 + slack.
	if u > 0.15 {
		t.Fatalf("serial plan utilization %f suspiciously high", u)
	}
}

func TestTomographRendering(t *testing.T) {
	cat := testCatalog(20_000)
	eng := NewEngine(cat, testMachine(), cost.Default())
	_, prof, err := eng.Execute(q6Plan())
	if err != nil {
		t.Fatal(err)
	}
	tg := prof.Tomograph(60)
	if !strings.Contains(tg, "core") || !strings.Contains(tg, "parallelism usage") {
		t.Fatalf("tomograph missing sections:\n%s", tg)
	}
	if !strings.Contains(tg, "S") {
		t.Fatalf("tomograph missing select glyphs:\n%s", tg)
	}
}

func TestConcurrentJobsShareMachine(t *testing.T) {
	cat := testCatalog(30_000)
	eng := NewEngine(cat, testMachine(), cost.Default())

	// Run one job in isolation for a baseline.
	iso := NewEngine(cat, testMachine(), cost.Default())
	_, isoProf, err := iso.Execute(q6Plan())
	if err != nil {
		t.Fatal(err)
	}

	// Saturate the machine with 16 concurrent copies.
	var jobs []*PlanJob
	for i := 0; i < 16; i++ {
		j, err := eng.Submit(q6Plan(), JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	eng.Run()
	for i, j := range jobs {
		if !j.Done {
			t.Fatalf("job %d not done", i)
		}
	}
	// At least one concurrent execution must be slower than isolation
	// (resource contention), and results stay correct.
	want := q6Expected(cat)
	slower := false
	for _, j := range jobs {
		if j.Results()[0].Scalar != want {
			t.Fatalf("concurrent job wrong result")
		}
		if j.Profile.Makespan() > isoProf.Makespan()*1.01 {
			slower = true
		}
	}
	if !slower {
		t.Fatal("16 concurrent jobs showed no contention at all")
	}
}

func TestJobMaxCoresAdmissionControl(t *testing.T) {
	cat := testCatalog(30_000)

	run := func(maxCores int) float64 {
		eng := NewEngine(cat, testMachine(), cost.Default())
		// A fan of independent selects that could run 8-wide.
		b := plan.NewBuilder()
		ship := b.Bind("lineitem", "l_shipdate")
		var outs []plan.VarID
		for i := 0; i < 8; i++ {
			outs = append(outs, b.Select(ship, algebra.Between(int64(i), int64(i+40))))
		}
		pk := b.Plan().NewVar(plan.KindOids, "pk")
		b.Plan().Append(&plan.Instr{Op: plan.OpPack, Args: outs, Rets: []plan.VarID{pk}, Part: plan.FullPart()})
		b.Plan().Append(&plan.Instr{Op: plan.OpResult, Args: []plan.VarID{pk}, Part: plan.FullPart()})
		j, err := eng.Submit(b.Plan(), JobOptions{MaxCores: maxCores})
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return j.Profile.Makespan()
	}
	wide := run(0)
	narrow := run(1)
	if narrow <= wide*2 {
		t.Fatalf("MaxCores=1 (%.0f) not much slower than unlimited (%.0f)", narrow, wide)
	}
}

func TestSubmitRejectsInvalidPlan(t *testing.T) {
	cat := testCatalog(10)
	eng := NewEngine(cat, testMachine(), cost.Default())
	p := plan.New()
	v := p.NewVar(plan.KindColumn, "x")
	o := p.NewVar(plan.KindOids, "o")
	p.Append(&plan.Instr{Op: plan.OpSelect, Args: []plan.VarID{v}, Rets: []plan.VarID{o},
		Aux: plan.SelectAux{}, Part: plan.FullPart()})
	if _, err := eng.Submit(p, JobOptions{}); err == nil {
		t.Fatal("invalid plan accepted")
	}
}

func TestExecuteMissingTableFails(t *testing.T) {
	cat := storage.NewCatalog()
	eng := NewEngine(cat, testMachine(), cost.Default())
	b := plan.NewBuilder()
	c := b.Bind("ghost", "col")
	s := b.Select(c, algebra.FullRange())
	b.Result(s)
	_, _, err := eng.Execute(b.Plan())
	if err == nil {
		t.Fatal("missing table did not fail")
	}
}

func TestValueEqualAndString(t *testing.T) {
	a := ScalarValue(5)
	if !a.Equal(ScalarValue(5)) || a.Equal(ScalarValue(6)) {
		t.Fatal("scalar equality wrong")
	}
	if a.Equal(OidsValue([]int64{5})) {
		t.Fatal("cross-kind equality")
	}
	o1, o2 := OidsValue([]int64{1, 2}), OidsValue([]int64{1, 2})
	if !o1.Equal(o2) || o1.Equal(OidsValue([]int64{1})) || o1.Equal(OidsValue([]int64{1, 3})) {
		t.Fatal("oid equality wrong")
	}
	c1 := ColValue(storage.NewIntColumn("a", []int64{1}))
	c2 := ColValue(storage.NewIntColumn("b", []int64{1}))
	if !c1.Equal(c2) {
		t.Fatal("column equality wrong")
	}
	g1, _ := algebra.GroupBy(storage.NewIntColumn("k", []int64{1, 1, 2}))
	g2, _ := algebra.GroupBy(storage.NewIntColumn("k", []int64{1, 1, 2}))
	if !GroupsValue(g1).Equal(GroupsValue(g2)) {
		t.Fatal("groups equality wrong")
	}
	for _, v := range []Value{a, o1, c1, GroupsValue(g1)} {
		if v.String() == "" {
			t.Fatal("empty String()")
		}
	}
	if !ResultsEqual([]Value{a}, []Value{ScalarValue(5)}) || ResultsEqual([]Value{a}, nil) {
		t.Fatal("ResultsEqual wrong")
	}
}

func TestAdmissionControlPolicy(t *testing.T) {
	if AdmissionMaxCores(0, 32, 32) != 32 {
		t.Fatal("first client must get all cores")
	}
	if got := AdmissionMaxCores(5, 32, 32); got != 1 {
		t.Fatalf("late client under heavy load got %d cores, want 1", got)
	}
	if got := AdmissionMaxCores(1, 4, 32); got != 8 {
		t.Fatalf("client share = %d, want 8", got)
	}
	if got := AdmissionMaxCores(3, 1, 32); got != 32 {
		t.Fatal("single active client must get all cores")
	}
	if got := AdmissionMaxCores(9, 64, 32); got != 1 {
		t.Fatalf("more clients than cores: got %d, want the serial floor of 1", got)
	}
}
