package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/exec"
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

func testCatalog(n int) *storage.Catalog {
	ship := make([]int64, n)
	disc := make([]int64, n)
	price := make([]int64, n)
	key := make([]int64, n)
	for i := 0; i < n; i++ {
		ship[i] = int64(i % 365)
		disc[i] = int64(i % 11)
		price[i] = int64(100 + i%900)
		key[i] = int64(i % 7)
	}
	t := storage.NewTable("lineitem")
	t.MustAddColumn(storage.NewIntColumn("l_shipdate", ship))
	t.MustAddColumn(storage.NewIntColumn("l_discount", disc))
	t.MustAddColumn(storage.NewIntColumn("l_extendedprice", price))
	t.MustAddColumn(storage.NewIntColumn("l_key", key))

	m := 97
	pk := make([]int64, m)
	pv := make([]int64, m)
	for i := 0; i < m; i++ {
		pk[i] = int64(i)
		pv[i] = int64(i * 3)
	}
	pt := storage.NewTable("part")
	pt.MustAddColumn(storage.NewIntColumn("p_partkey", pk))
	pt.MustAddColumn(storage.NewIntColumn("p_value", pv))

	cat := storage.NewCatalog()
	cat.MustAdd(t)
	cat.MustAdd(pt)
	return cat
}

func executePlan(t *testing.T, cat *storage.Catalog, p *plan.Plan) []exec.Value {
	t.Helper()
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	res, _, err := eng.Execute(p)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return res
}

// selectPlan: select + fetch + sum, the minimal basic-mutation target.
func selectPlan() *plan.Plan {
	b := plan.NewBuilder()
	ship := b.Bind("lineitem", "l_shipdate")
	price := b.Bind("lineitem", "l_extendedprice")
	s := b.Select(ship, algebra.Between(50, 250))
	pr := b.Fetch(s, price)
	sum := b.Aggr(algebra.AggrSum, pr)
	b.Result(sum)
	return b.Plan()
}

// joinPlan: select on lineitem, fk join to part, sum of fetched part values.
func joinPlan() *plan.Plan {
	b := plan.NewBuilder()
	key := b.Bind("lineitem", "l_key")
	pkey := b.Bind("part", "p_partkey")
	pval := b.Bind("part", "p_value")
	lo, ro := b.Join(key, pkey)
	_ = lo
	vals := b.Fetch(ro, pval)
	sum := b.Aggr(algebra.AggrSum, vals)
	b.Result(sum)
	return b.Plan()
}

// groupPlan: group-by with two aggregates and a keys output.
func groupPlan() *plan.Plan {
	b := plan.NewBuilder()
	key := b.Bind("lineitem", "l_key")
	price := b.Bind("lineitem", "l_extendedprice")
	g := b.GroupBy(key)
	sums := b.AggrGrouped(algebra.AggrSum, price, g)
	counts := b.AggrGrouped(algebra.AggrCount, price, g)
	keys := b.GroupKeys(g)
	b.Result(keys, sums, counts)
	return b.Plan()
}

func findOp(p *plan.Plan, op plan.OpCode) int {
	for i, in := range p.Instrs {
		if in.Op == op {
			return i
		}
	}
	return -1
}

func TestBasicMutationSelect(t *testing.T) {
	cat := testCatalog(10_000)
	p := selectPlan()
	want := executePlan(t, cat, p)

	np, kind, err := Parallelize(p, findOp(p, plan.OpSelect), 2)
	if err != nil {
		t.Fatal(err)
	}
	if kind != MutationBasic {
		t.Fatalf("kind = %s", kind)
	}
	if err := np.Validate(); err != nil {
		t.Fatal(err)
	}
	if np.CountOps(plan.OpSelect) != 2 {
		t.Fatalf("selects = %d, want 2", np.CountOps(plan.OpSelect))
	}
	if np.CountOps(plan.OpPack) != 1 {
		t.Fatalf("packs = %d, want 1", np.CountOps(plan.OpPack))
	}
	if np.MaxDOP() != 2 {
		t.Fatalf("DOP = %d", np.MaxDOP())
	}
	got := executePlan(t, cat, np)
	if !exec.ResultsEqual(want, got) {
		t.Fatalf("mutated result %v != %v", got, want)
	}
	// Original untouched.
	if p.CountOps(plan.OpSelect) != 1 {
		t.Fatal("original plan was modified")
	}
}

func TestBasicMutationGrowsExistingPack(t *testing.T) {
	cat := testCatalog(10_000)
	p := selectPlan()
	want := executePlan(t, cat, p)

	np, _, err := Parallelize(p, findOp(p, plan.OpSelect), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Split the first select clone again: the pack must grow to 3 inputs,
	// not gain a nested pack (Figure 8's dynamic partitioning).
	np2, kind, err := Parallelize(np, findOp(np, plan.OpSelect), 2)
	if err != nil {
		t.Fatal(err)
	}
	if kind != MutationBasic {
		t.Fatalf("kind = %s", kind)
	}
	if np2.CountOps(plan.OpSelect) != 3 || np2.CountOps(plan.OpPack) != 1 {
		t.Fatalf("selects=%d packs=%d, want 3/1", np2.CountOps(plan.OpSelect), np2.CountOps(plan.OpPack))
	}
	pk := np2.Instrs[findOp(np2, plan.OpPack)]
	if len(pk.Args) != 3 {
		t.Fatalf("pack arity = %d, want 3", len(pk.Args))
	}
	got := executePlan(t, cat, np2)
	if !exec.ResultsEqual(want, got) {
		t.Fatalf("twice-mutated result %v != %v", got, want)
	}
	// Partition ranges of the three selects cover [0,1) without overlap.
	var parts []plan.Part
	for _, in := range np2.Instrs {
		if in.Op == plan.OpSelect {
			parts = append(parts, in.Part)
		}
	}
	covered := make([]int, 1000)
	for _, part := range parts {
		lo, hi := part.Resolve(1000)
		for i := lo; i < hi; i++ {
			covered[i]++
		}
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("position %d covered %d times", i, c)
		}
	}
}

func TestJoinMutationPartitionsOuterOnly(t *testing.T) {
	cat := testCatalog(10_000)
	p := joinPlan()
	want := executePlan(t, cat, p)

	np, kind, err := Parallelize(p, findOp(p, plan.OpJoin), 2)
	if err != nil {
		t.Fatal(err)
	}
	if kind != MutationBasic {
		t.Fatalf("kind = %s", kind)
	}
	if np.CountOps(plan.OpJoin) != 2 {
		t.Fatalf("joins = %d", np.CountOps(plan.OpJoin))
	}
	// Join has two results; only the consumed one needs packing, but both
	// clones must share the same inner variable (shared hash build).
	joins := []*plan.Instr{}
	for _, in := range np.Instrs {
		if in.Op == plan.OpJoin {
			joins = append(joins, in)
		}
	}
	if joins[0].Args[1] != joins[1].Args[1] {
		t.Fatal("join clones do not share the inner input")
	}
	if joins[0].Args[0] != joins[1].Args[0] {
		t.Fatal("join clones should share the outer var (sliced by Part)")
	}
	if joins[0].Part == joins[1].Part {
		t.Fatal("join clones have identical partitions")
	}
	got := executePlan(t, cat, np)
	if !exec.ResultsEqual(want, got) {
		t.Fatalf("join-mutated result %v != %v", got, want)
	}
}

func TestAdvancedMutationScalarAggr(t *testing.T) {
	cat := testCatalog(10_000)
	p := selectPlan()
	want := executePlan(t, cat, p)

	np, kind, err := Parallelize(p, findOp(p, plan.OpAggr), 2)
	if err != nil {
		t.Fatal(err)
	}
	if kind != MutationAdvanced {
		t.Fatalf("kind = %s", kind)
	}
	if np.CountOps(plan.OpAggr) != 2 || np.CountOps(plan.OpMergeAggr) != 1 || np.CountOps(plan.OpPack) != 1 {
		t.Fatalf("aggr=%d merge=%d pack=%d", np.CountOps(plan.OpAggr), np.CountOps(plan.OpMergeAggr), np.CountOps(plan.OpPack))
	}
	got := executePlan(t, cat, np)
	if !exec.ResultsEqual(want, got) {
		t.Fatalf("aggr-mutated result %v != %v", got, want)
	}
	// Splitting one aggr clone again grows the partials pack to 3 without a
	// second merge.
	np2, _, err := Parallelize(np, findOp(np, plan.OpAggr), 2)
	if err != nil {
		t.Fatal(err)
	}
	if np2.CountOps(plan.OpAggr) != 3 || np2.CountOps(plan.OpMergeAggr) != 1 {
		t.Fatalf("second split: aggr=%d merge=%d", np2.CountOps(plan.OpAggr), np2.CountOps(plan.OpMergeAggr))
	}
	if got2 := executePlan(t, cat, np2); !exec.ResultsEqual(want, got2) {
		t.Fatal("second aggr split changed results")
	}
}

func TestAdvancedMutationGroupBy(t *testing.T) {
	cat := testCatalog(10_000)
	p := groupPlan()
	want := executePlan(t, cat, p)

	np, kind, err := Parallelize(p, findOp(p, plan.OpGroupBy), 2)
	if err != nil {
		t.Fatal(err)
	}
	if kind != MutationAdvanced {
		t.Fatalf("kind = %s", kind)
	}
	if err := np.Validate(); err != nil {
		t.Fatal(err)
	}
	if np.CountOps(plan.OpGroupBy) != 2 {
		t.Fatalf("groupbys = %d", np.CountOps(plan.OpGroupBy))
	}
	if np.CountOps(plan.OpGroupMerge) != 2 { // one per aggregate
		t.Fatalf("groupmerges = %d", np.CountOps(plan.OpGroupMerge))
	}
	got := executePlan(t, cat, np)
	if !exec.ResultsEqual(want, got) {
		t.Fatalf("groupby-mutated results differ")
	}

	// Splitting a group-by clone splices into the existing packs.
	np2, _, err := Parallelize(np, findOp(np, plan.OpGroupBy), 2)
	if err != nil {
		t.Fatal(err)
	}
	if np2.CountOps(plan.OpGroupBy) != 3 || np2.CountOps(plan.OpGroupMerge) != 2 {
		t.Fatalf("second split: groupbys=%d merges=%d", np2.CountOps(plan.OpGroupBy), np2.CountOps(plan.OpGroupMerge))
	}
	if got2 := executePlan(t, cat, np2); !exec.ResultsEqual(want, got2) {
		t.Fatal("second groupby split changed results")
	}
}

func TestAdvancedMutationSort(t *testing.T) {
	cat := testCatalog(5_000)
	b := plan.NewBuilder()
	ship := b.Bind("lineitem", "l_shipdate")
	sorted, _ := b.Sort(ship, false)
	sum := b.Aggr(algebra.AggrSum, sorted)
	b.Result(sum, sorted)
	p := b.Plan()
	want := executePlan(t, cat, p)

	np, kind, err := Parallelize(p, findOp(p, plan.OpSort), 2)
	if err != nil {
		t.Fatal(err)
	}
	if kind != MutationAdvanced {
		t.Fatalf("kind = %s", kind)
	}
	if np.CountOps(plan.OpSort) != 2 || np.CountOps(plan.OpMergeSorted) != 1 {
		t.Fatalf("sorts=%d merges=%d", np.CountOps(plan.OpSort), np.CountOps(plan.OpMergeSorted))
	}
	got := executePlan(t, cat, np)
	if !exec.ResultsEqual(want, got) {
		t.Fatal("sort-mutated results differ")
	}
}

func TestSortMutationRefusedWhenPermConsumed(t *testing.T) {
	b := plan.NewBuilder()
	ship := b.Bind("lineitem", "l_shipdate")
	price := b.Bind("lineitem", "l_extendedprice")
	sorted, perm := b.Sort(ship, false)
	pr := b.Fetch(perm, price)
	b.Result(sorted, pr)
	p := b.Plan()
	_, _, err := Parallelize(p, findOp(p, plan.OpSort), 2)
	if !errors.Is(err, errNotApplicable) {
		t.Fatalf("err = %v, want errNotApplicable", err)
	}
}

func TestMediumMutationRemovePack(t *testing.T) {
	cat := testCatalog(10_000)
	p := selectPlan()
	want := executePlan(t, cat, p)

	// First parallelize the select (creates the pack), then remove the pack
	// when it turns "expensive": its inputs propagate to the fetch.
	np, _, err := Parallelize(p, findOp(p, plan.OpSelect), 2)
	if err != nil {
		t.Fatal(err)
	}
	packIdx := findOp(np, plan.OpPack)
	np2, err := RemovePack(np, packIdx, 15)
	if err != nil {
		t.Fatal(err)
	}
	if err := np2.Validate(); err != nil {
		t.Fatal(err)
	}
	// The oids pack is gone; the fetch is cloned per input with a fresh
	// column pack combining the fetched values.
	if np2.CountOps(plan.OpFetch) != 2 {
		t.Fatalf("fetches = %d, want 2", np2.CountOps(plan.OpFetch))
	}
	got := executePlan(t, cat, np2)
	if !exec.ResultsEqual(want, got) {
		t.Fatalf("medium-mutated result %v != %v", got, want)
	}
}

func TestMediumMutationIntoScalarAggr(t *testing.T) {
	cat := testCatalog(10_000)
	// select → fetch → aggr; parallelize fetch, then remove its pack: the
	// aggr splits into partials + merge.
	p := selectPlan()
	want := executePlan(t, cat, p)
	np, _, err := Parallelize(p, findOp(p, plan.OpFetch), 2)
	if err != nil {
		t.Fatal(err)
	}
	np2, err := RemovePack(np, findOp(np, plan.OpPack), 15)
	if err != nil {
		t.Fatal(err)
	}
	if np2.CountOps(plan.OpAggr) != 2 || np2.CountOps(plan.OpMergeAggr) != 1 {
		t.Fatalf("aggr=%d merge=%d", np2.CountOps(plan.OpAggr), np2.CountOps(plan.OpMergeAggr))
	}
	got := executePlan(t, cat, np2)
	if !exec.ResultsEqual(want, got) {
		t.Fatal("medium-into-aggr changed results")
	}
}

func TestRemovePackSuppressedAboveThreshold(t *testing.T) {
	p := selectPlan()
	np, _, err := Parallelize(p, findOp(p, plan.OpSelect), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Grow the pack beyond the threshold by repeated splitting.
	for np.CountOps(plan.OpSelect) <= 16 {
		np, _, err = Parallelize(np, findOp(np, plan.OpSelect), 2)
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err = RemovePack(np, findOp(np, plan.OpPack), 15)
	if !errors.Is(err, ErrSuppressed) {
		t.Fatalf("err = %v, want ErrSuppressed", err)
	}
}

func TestRemovePackFlattensIntoConsumerPack(t *testing.T) {
	cat := testCatalog(10_000)
	// Build a plan where a pack feeds another pack (pack of packs after
	// mixed mutations): removal must splice, not clone.
	b := plan.NewBuilder()
	ship := b.Bind("lineitem", "l_shipdate")
	s1 := b.Select(ship, algebra.Between(0, 100))
	s2 := b.Select(ship, algebra.Between(101, 200))
	p := b.Plan()
	inner := p.NewVar(plan.KindOids, "inner")
	p.Append(&plan.Instr{Op: plan.OpPack, Args: []plan.VarID{s1, s2}, Rets: []plan.VarID{inner}, Part: plan.FullPart()})
	s3 := p.NewVar(plan.KindOids, "s3")
	p.Append(&plan.Instr{Op: plan.OpSelect, Aux: plan.SelectAux{Pred: algebra.Between(201, 300)},
		Args: []plan.VarID{ship}, Rets: []plan.VarID{s3}, Part: plan.FullPart()})
	outer := p.NewVar(plan.KindOids, "outer")
	p.Append(&plan.Instr{Op: plan.OpPack, Args: []plan.VarID{inner, s3}, Rets: []plan.VarID{outer}, Part: plan.FullPart()})
	p.Append(&plan.Instr{Op: plan.OpResult, Args: []plan.VarID{outer}, Part: plan.FullPart()})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	want := executePlan(t, cat, p)

	innerIdx := -1
	for i, in := range p.Instrs {
		if in.Op == plan.OpPack && len(in.Args) == 2 && p.NameOf(in.Rets[0]) == "inner" {
			innerIdx = i
		}
	}
	np, err := RemovePack(p, innerIdx, 15)
	if err != nil {
		t.Fatal(err)
	}
	if np.CountOps(plan.OpPack) != 1 {
		t.Fatalf("packs = %d, want 1 (flattened)", np.CountOps(plan.OpPack))
	}
	outerPack := np.Instrs[findOp(np, plan.OpPack)]
	if len(outerPack.Args) != 3 {
		t.Fatalf("outer pack arity = %d, want 3", len(outerPack.Args))
	}
	got := executePlan(t, cat, np)
	if !exec.ResultsEqual(want, got) {
		t.Fatal("flattening changed results")
	}
}

// The central correctness property: ANY random sequence of applicable
// mutations leaves query results identical to the serial plan (invariant 1
// of docs/ARCHITECTURE.md).
func TestRandomMutationSequencesPreserveResults(t *testing.T) {
	cat := testCatalog(8_000)
	plans := map[string]func() *plan.Plan{
		"select":   selectPlan,
		"join":     joinPlan,
		"group":    groupPlan,
		"rowspace": rowSpacePlan,
		"louter":   louterPlan,
	}
	for name, mk := range plans {
		t.Run(name, func(t *testing.T) {
			base := mk()
			want := executePlan(t, cat, base)
			for seed := int64(0); seed < 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				p := base
				for step := 0; step < 10; step++ {
					// Pick a random mutatable instruction.
					var cands []int
					for i, in := range p.Instrs {
						if plan.BasicPartitionable(in.Op) || plan.AdvancedPartitionable(in.Op) || in.Op == plan.OpPack {
							cands = append(cands, i)
						}
					}
					if len(cands) == 0 {
						break
					}
					idx := cands[rng.Intn(len(cands))]
					var np *plan.Plan
					var err error
					if p.Instrs[idx].Op == plan.OpPack {
						np, err = RemovePack(p, idx, 15)
					} else {
						np, _, err = Parallelize(p, idx, 2)
					}
					if err != nil {
						continue // not applicable here; try another step
					}
					if verr := np.Validate(); verr != nil {
						t.Fatalf("seed %d step %d: invalid plan: %v\n%s", seed, step, verr, np)
					}
					// Every intermediate plan is one the adaptation could
					// serve, so every one is compared, not only the last.
					if got := executePlan(t, cat, np); !exec.ResultsEqual(want, got) {
						t.Fatalf("seed %d step %d: mutated plan diverged\n%s", seed, step, np)
					}
					p = np
				}
			}
		})
	}
}
