package core

import (
	"errors"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/plan"
)

// calcPlan builds select → two fetches → calc → sum: the multi-column
// propagation-dependency shape of §2.2 (two sibling packs feeding one calc
// after parallelization).
func calcPlan() *plan.Plan {
	b := plan.NewBuilder()
	ship := b.Bind("lineitem", "l_shipdate")
	disc := b.Bind("lineitem", "l_discount")
	price := b.Bind("lineitem", "l_extendedprice")
	s := b.Select(ship, algebra.Between(50, 250))
	d := b.Fetch(s, disc)
	pr := b.Fetch(s, price)
	rev := b.CalcVV(algebra.CalcMul, pr, d)
	sum := b.Aggr(algebra.AggrSum, rev)
	b.Result(sum)
	return b.Plan()
}

// rowSpacePlan is the minimal shape on which propagating a row-id consumer
// is unsound: the second select's oids are row ids of the packed disc′ and
// index the SIBLING column price′.
func rowSpacePlan() *plan.Plan {
	b := plan.NewBuilder()
	ship := b.Bind("lineitem", "l_shipdate")
	disc := b.Bind("lineitem", "l_discount")
	price := b.Bind("lineitem", "l_extendedprice")
	s := b.Select(ship, algebra.Between(50, 250))
	pr := b.Fetch(s, price)
	d := b.Fetch(s, disc)
	s2 := b.Select(d, algebra.Between(2, 8))
	sum := b.Aggr(algebra.AggrSum, b.Fetch(s2, pr))
	b.Result(sum)
	return b.Plan()
}

// louterPlan is the TPC-H Q9 tail: a join's louter drives a fetchpos into a
// column that is a sibling of the join's outer.
func louterPlan() *plan.Plan {
	b := plan.NewBuilder()
	ship := b.Bind("lineitem", "l_shipdate")
	key := b.Bind("lineitem", "l_key")
	price := b.Bind("lineitem", "l_extendedprice")
	pkey := b.Bind("part", "p_partkey")
	pval := b.Bind("part", "p_value")
	s := b.Select(ship, algebra.Between(50, 250))
	k := b.Fetch(s, key)
	pr := b.Fetch(s, price)
	lo, ro := b.Join(k, pkey)
	rev := b.CalcVV(algebra.CalcMul, b.FetchPos(lo, pr), b.Fetch(ro, pval))
	b.Result(b.Aggr(algebra.AggrSum, rev))
	return b.Plan()
}

// packFeeding returns the index of the pack whose result op consumes.
func packFeeding(p *plan.Plan, op plan.OpCode) int {
	for i, in := range p.Instrs {
		if in.Op != plan.OpPack {
			continue
		}
		for _, ci := range p.Consumers(in.Rets[0]) {
			if p.Instrs[ci].Op == op {
				return i
			}
		}
	}
	return -1
}

// The row-space rule: split the first select, remove the oid pack (the two
// fetches become propagated full-range clones, each in its own zero-based
// row space), then ask to remove the pack of propagated disc fetches. The
// select over it emits row ids that a fetch resolves against the sibling
// price pack, so the removal must be refused — before PR 19 it was applied
// and the plan summed the wrong rows.
func TestRemovePackRefusesRowIdsOverPropagatedClones(t *testing.T) {
	cat := testCatalog(10_000)
	p := rowSpacePlan()
	want := executePlan(t, cat, p)
	np := mustParallelize(t, p, findOp(p, plan.OpSelect), 2)
	np, err := RemovePack(np, packFeeding(np, plan.OpFetch), 33)
	if err != nil {
		t.Fatalf("remove oid pack: %v", err)
	}
	if got := executePlan(t, cat, np); !exec.ResultsEqual(want, got) {
		t.Fatal("propagating the fetches changed results")
	}
	if _, err := RemovePack(np, packFeeding(np, plan.OpSelect), 33); !errors.Is(err, errNotApplicable) {
		t.Fatalf("remove pack of propagated fetches under a select: err = %v, want errNotApplicable", err)
	}

	// The same pack shape is fine to remove while its inputs are a sliced
	// tiling of one anchor: clone i's head sequence is its offset.
	np = mustParallelize(t, p, findOp(p, plan.OpFetch)+1, 2) // the disc fetch
	np, err = RemovePack(np, packFeeding(np, plan.OpSelect), 33)
	if err != nil {
		t.Fatalf("remove pack of sliced fetches under a select: %v", err)
	}
	if got := executePlan(t, cat, np); !exec.ResultsEqual(want, got) {
		t.Fatal("propagating a select over sliced fetches changed results")
	}
}

// Re-splitting a sliced clone whose consumer derives row ids from it: the
// new exchange union stands in for the slice [1/2,1), so its head must start
// where that slice's did (algebra.PackColumns). With a fresh zero-based head
// the propagated select emitted ids half a column off.
func TestResplitSlicedCloneKeepsRowIds(t *testing.T) {
	cat := testCatalog(10_000)
	p := rowSpacePlan()
	want := executePlan(t, cat, p)
	np := mustParallelize(t, p, findOp(p, plan.OpFetch)+1, 2) // the disc fetch
	np, err := RemovePack(np, packFeeding(np, plan.OpSelect), 33)
	if err != nil {
		t.Fatal(err)
	}
	upper := -1
	for i, in := range np.Instrs {
		if in.Op == plan.OpFetch && in.Part.LoNum != 0 {
			upper = i
		}
	}
	np = mustParallelize(t, np, upper, 2)
	if got := executePlan(t, cat, np); !exec.ResultsEqual(want, got) {
		t.Fatalf("re-split of the upper fetch clone changed results\n%s", np)
	}
}

func mustParallelize(t *testing.T, p *plan.Plan, idx, n int) *plan.Plan {
	t.Helper()
	np, _, err := Parallelize(p, idx, n)
	if err != nil {
		t.Fatalf("parallelize instr %d: %v", idx, err)
	}
	return np
}

func TestMediumMutationSiblingPacks(t *testing.T) {
	cat := testCatalog(10_000)
	p := calcPlan()
	want := executePlan(t, cat, p)

	// Parallelize both fetches: two sibling packs feed the calc.
	np := mustParallelize(t, p, findOp(p, plan.OpFetch), 2)
	second := -1
	for i, in := range np.Instrs {
		if in.Op == plan.OpFetch && in.Part.IsFull() {
			second = i
		}
	}
	if second < 0 {
		t.Fatal("second fetch not found")
	}
	np = mustParallelize(t, np, second, 2)
	if np.CountOps(plan.OpPack) != 2 {
		t.Fatalf("packs = %d, want 2 siblings", np.CountOps(plan.OpPack))
	}
	// Remove one pack: the calc must be cloned pairwise against the
	// sibling pack's inputs, and the dead sibling dropped.
	np2, err := RemovePack(np, findOp(np, plan.OpPack), 33)
	if err != nil {
		t.Fatal(err)
	}
	if err := np2.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := np2.CountOps(plan.OpCalcVV); got != 2 {
		t.Fatalf("calc clones = %d, want 2", got)
	}
	got := executePlan(t, cat, np2)
	if !exec.ResultsEqual(want, got) {
		t.Fatalf("sibling-pack propagation changed results\n%s", np2)
	}
}

func TestMediumMutationRefusesUnpairedSibling(t *testing.T) {
	cat := testCatalog(10_000)
	_ = cat
	p := calcPlan()
	// Parallelize only ONE fetch: the calc's other anchor is a plain
	// (unpartitioned) variable, so the pack cannot be removed through it.
	np := mustParallelize(t, p, findOp(p, plan.OpFetch), 2)
	_, err := RemovePack(np, findOp(np, plan.OpPack), 33)
	if !errors.Is(err, errNotApplicable) {
		t.Fatalf("err = %v, want errNotApplicable", err)
	}
}

func TestMediumMutationPartitionedConsumerFamily(t *testing.T) {
	cat := testCatalog(10_000)
	p := selectPlan()
	want := executePlan(t, cat, p)

	// Split the select, then split the fetch over the packed oids twice so
	// the pack's consumers are a positionally partitioned family.
	np := mustParallelize(t, p, findOp(p, plan.OpSelect), 2)
	np = mustParallelize(t, np, findOp(np, plan.OpFetch), 2)
	np = mustParallelize(t, np, findOp(np, plan.OpFetch), 2)

	// Find the oids pack (select-output pack).
	packIdx := -1
	for i, in := range np.Instrs {
		if in.Op == plan.OpPack && np.KindOf(in.Rets[0]) == plan.KindOids {
			packIdx = i
		}
	}
	if packIdx < 0 {
		t.Fatalf("no oids pack found:\n%s", np)
	}
	np2, err := RemovePack(np, packIdx, 33)
	if err != nil {
		t.Fatal(err)
	}
	if err := np2.Validate(); err != nil {
		t.Fatal(err)
	}
	// The family (3 partitioned fetch clones) is replaced by per-input
	// clones (2 select clones → 2 fetches).
	if got := np2.CountOps(plan.OpFetch); got != 2 {
		t.Fatalf("fetches = %d, want 2 per-input clones\n%s", got, np2)
	}
	got := executePlan(t, cat, np2)
	if !exec.ResultsEqual(want, got) {
		t.Fatal("family replacement changed results")
	}
}

func TestRemovePackIntoGroupBySubgraph(t *testing.T) {
	cat := testCatalog(10_000)
	p := groupPlan()
	want := executePlan(t, cat, p)

	// Build the state: keys fetched via a partitioned select (pack), then
	// advanced-parallelized group-by clones slicing the pack.
	b := plan.NewBuilder()
	key := b.Bind("lineitem", "l_key")
	price := b.Bind("lineitem", "l_extendedprice")
	s := b.Select(key, algebra.FullRange())
	keys := b.Fetch(s, key)
	vals := b.Fetch(s, price)
	g := b.GroupBy(keys)
	sums := b.AggrGrouped(algebra.AggrSum, vals, g)
	counts := b.AggrGrouped(algebra.AggrCount, vals, g)
	gk := b.GroupKeys(g)
	b.Result(gk, sums, counts)
	p2 := b.Plan()
	wantP2 := executePlan(t, cat, p2)

	np := mustParallelize(t, p2, findOp(p2, plan.OpFetch), 2) // keys fetch → pack
	// Second fetch (vals) becomes the sibling pack.
	idx := -1
	for i, in := range np.Instrs {
		if in.Op == plan.OpFetch && in.Part.IsFull() {
			idx = i
		}
	}
	np = mustParallelize(t, np, idx, 2)
	// Advanced mutation of the group-by over the packed keys.
	np = mustParallelize(t, np, findOp(np, plan.OpGroupBy), 2)

	// Now remove the keys pack: the group-by subgraph is re-cloned per
	// pack input.
	packIdx := -1
	for i, in := range np.Instrs {
		if in.Op != plan.OpPack {
			continue
		}
		for _, ci := range np.Consumers(in.Rets[0]) {
			if np.Instrs[ci].Op == plan.OpGroupBy {
				packIdx = i
			}
		}
	}
	if packIdx < 0 {
		t.Skipf("no pack feeds the group-by in this plan state:\n%s", np)
	}
	np2, err := RemovePack(np, packIdx, 33)
	if err != nil {
		t.Fatalf("remove groupby pack: %v\n%s", err, np)
	}
	if err := np2.Validate(); err != nil {
		t.Fatal(err)
	}
	got := executePlan(t, cat, np2)
	if !exec.ResultsEqual(wantP2, got) {
		t.Fatal("groupby-subgraph propagation changed results")
	}
	_ = want
}

// Deep adaptive sessions across all three plan shapes with verification on:
// a long random walk through every mutation path must preserve results.
func TestDeepSessionsPreserveResults(t *testing.T) {
	cat := testCatalog(60_000)
	for name, mk := range map[string]func() *plan.Plan{
		"select": selectPlan, "join": joinPlan, "group": groupPlan, "calc": calcPlan,
		"rowspace": rowSpacePlan, "louter": louterPlan,
	} {
		t.Run(name, func(t *testing.T) {
			eng := exec.NewEngine(cat, testMachine(), cost.Default())
			s := NewSession(eng, mk(), DefaultMutationConfig(), DefaultConvergenceConfig(8))
			s.VerifyResults = true
			if _, err := s.Converge(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConvergenceFirstRunSpikeForgiven(t *testing.T) {
	c := NewConvergence(DefaultConvergenceConfig(8))
	c.Observe(100) // serial
	if !c.Observe(400) {
		t.Fatal("spiked first run halted adaptation")
	}
	if len(c.Outliers()) != 1 {
		t.Fatalf("outliers = %v", c.Outliers())
	}
	// Recovery and improvement continue normally.
	if !c.Observe(80) || !c.Observe(60) {
		t.Fatal("post-spike improvements rejected")
	}
	gme, _, ok := c.GME()
	if !ok || gme != 60 {
		t.Fatalf("GME = %v", gme)
	}
}
