package exec

import (
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/storage"
)

// derive returns a mutation-shaped child of p: a clone (variables keep their
// ids, new ones are appended) that edit rewrites and that is then put back in
// topological order.
func derive(t *testing.T, p *plan.Plan, edit func(c *plan.Plan)) *plan.Plan {
	t.Helper()
	c := p.Clone()
	edit(c)
	if err := c.TopoSort(); err != nil {
		t.Fatal(err)
	}
	return c
}

// instrOf returns c's only instruction with opcode op.
func instrOf(t *testing.T, c *plan.Plan, op plan.OpCode) *plan.Instr {
	t.Helper()
	var found *plan.Instr
	for _, in := range c.Instrs {
		if in.Op == op {
			if found != nil {
				t.Fatalf("two %s instructions", op)
			}
			found = in
		}
	}
	if found == nil {
		t.Fatalf("no %s instruction", op)
	}
	return found
}

// emit appends a full-range instruction with fresh results of the given
// kinds and returns them.
func emit(c *plan.Plan, op plan.OpCode, aux any, args []plan.VarID, kinds ...plan.Kind) []plan.VarID {
	rets := make([]plan.VarID, len(kinds))
	for i, k := range kinds {
		rets[i] = c.NewVar(k, "")
	}
	c.Append(&plan.Instr{Op: op, Aux: aux, Args: args, Rets: rets, Part: plan.FullPart()})
	return rets
}

// withoutOps drops every instruction of c with one of the opcodes.
func withoutOps(c *plan.Plan, ops ...plan.OpCode) {
	c.Instrs = slices.DeleteFunc(c.Instrs, func(in *plan.Instr) bool { return slices.Contains(ops, in.Op) })
}

// fetchSumPlan selects lineitem rows by ship date and sums their prices: a
// select and a fetch into its arena slot, both dead intermediates.
func fetchSumPlan() *plan.Plan {
	b := plan.NewBuilder()
	price := b.Bind("lineitem", "l_extendedprice")
	sel := b.Select(b.Bind("lineitem", "l_shipdate"), algebra.Between(100, 200))
	b.Result(b.Aggr(algebra.AggrSum, b.Fetch(sel, price)))
	return b.Plan()
}

// innerCountPlan counts the inner rows passing f >= 1 (joinCatalog): the
// fetch of the inner keys is no join's inner.
func innerCountPlan() *plan.Plan {
	b := plan.NewBuilder()
	sel := b.Select(b.Bind("inner", "f"), algebra.AtLeast(1))
	b.Result(b.Aggr(algebra.AggrCount, b.Fetch(sel, b.Bind("inner", "k"))))
	return b.Plan()
}

// joinCountPlan is innerCountPlan's selection and fetch, joined as the inner
// of outer.k.
func joinCountPlan() *plan.Plan {
	b := plan.NewBuilder()
	ok := b.Bind("outer", "k")
	sel := b.Select(b.Bind("inner", "f"), algebra.AtLeast(1))
	lo, _ := b.Join(ok, b.Fetch(sel, b.Bind("inner", "k")))
	b.Result(b.Aggr(algebra.AggrCount, b.Fetch(lo, ok)))
	return b.Plan()
}

// toMax makes the child's only aggregate a max: the aggregate and the result
// marker change, everything below them is matched.
func toMax(t *testing.T) func(c *plan.Plan) {
	return func(c *plan.Plan) { instrOf(t, c, plan.OpAggr).Aux = plan.AggrAux{Func: algebra.AggrMax} }
}

// A derived plan's first run takes the parent run's value and Work for the
// instructions the reuse rule admits, and must be indistinguishable from a
// fresh engine's run of the same plan: equal results and equal Work per
// instruction. Each case breaks one condition of the rule and says how many
// instructions may still be reused; the two "reuses" cases are the positive
// controls.
func TestDerivedRunReusesOnlyWhatIsUnchanged(t *testing.T) {
	cat := testCatalog(20_000)
	epoch, err := cat.AppendRows("lineitem", map[string]storage.ColumnAppend{
		"l_shipdate":      {Ints: []int64{150, 150, 150}},
		"l_discount":      {Ints: []int64{1, 2, 3}},
		"l_extendedprice": {Ints: []int64{5000, 6000, 7000}},
		"l_quantity":      {Ints: []int64{1, 1, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tenant := testCatalog(15_000)
	keys := make([]int64, 300)
	for i := range keys {
		keys[i] = int64(i)
	}
	joins := joinCatalog(keys, keys[:200])

	fetchSum, grouped := fetchSumPlan(), partitionedFetchPlan(4)
	failing := derive(t, fetchSum, func(c *plan.Plan) {
		emit(c, plan.OpBind, plan.BindAux{Table: "lineitem", Column: "no_such_column"}, nil, plan.KindColumn)
	})
	cases := []struct {
		name                  string
		cat                   *storage.Catalog
		parent, child         *plan.Plan
		parentOpts, childOpts JobOptions
		parentFails           bool
		reused                int64
	}{
		{name: "reuses select and fetch", cat: cat, parent: fetchSum,
			child: derive(t, fetchSum, toMax(t)), reused: 2},
		{name: "another epoch", cat: cat, parent: fetchSum,
			child: derive(t, fetchSum, toMax(t)), childOpts: JobOptions{Catalog: epoch}},
		{name: "another tenant", cat: cat, parent: fetchSum,
			child: derive(t, fetchSum, toMax(t)), childOpts: JobOptions{Catalog: tenant}},
		{name: "reuses a whole pack group", cat: cat, parent: grouped,
			child: derive(t, grouped, toMax(t)), reused: 6},
		{name: "copy-exchange parent", cat: cat, parent: grouped, parentOpts: JobOptions{CopyExchange: true},
			child: derive(t, grouped, toMax(t))},
		{name: "copy-exchange child", cat: cat, parent: grouped,
			child: derive(t, grouped, toMax(t)), childOpts: JobOptions{CopyExchange: true}},
		{name: "failed parent", cat: cat, parent: failing, parentFails: true,
			child: derive(t, failing, func(c *plan.Plan) {
				c.Instrs = slices.DeleteFunc(c.Instrs, func(in *plan.Instr) bool {
					return in.Op == plan.OpBind && in.Aux.(plan.BindAux).Column == "no_such_column"
				})
			})},
		{name: "fetch becomes result-reachable", cat: cat, parent: fetchSum, reused: 2, // select, aggr
			child: derive(t, fetchSum, func(c *plan.Plan) {
				res := instrOf(t, c, plan.OpResult)
				res.Args = append(res.Args, instrOf(t, c, plan.OpFetch).Rets[0])
			})},
		{name: "fetch stops being a join inner", cat: joins, parent: joinCountPlan(), reused: 1, // select
			child: derive(t, joinCountPlan(), func(c *plan.Plan) {
				var ik plan.VarID
				for _, in := range c.Instrs {
					if in.Op == plan.OpJoin {
						ik = in.Args[1]
					}
				}
				withoutOps(c, plan.OpJoin, plan.OpAggr, plan.OpResult)
				c.Instrs = slices.DeleteFunc(c.Instrs, func(in *plan.Instr) bool { return in.Op == plan.OpFetch && in.Rets[0] != ik })
				n := emit(c, plan.OpAggr, plan.AggrAux{Func: algebra.AggrCount}, []plan.VarID{ik}, plan.KindScalar)
				emit(c, plan.OpResult, nil, n)
			})},
		{name: "fetch becomes a join inner", cat: joins, parent: innerCountPlan(), reused: 1, // select
			child: derive(t, innerCountPlan(), func(c *plan.Plan) {
				ik := instrOf(t, c, plan.OpFetch).Rets[0]
				withoutOps(c, plan.OpAggr, plan.OpResult)
				ok := emit(c, plan.OpBind, plan.BindAux{Table: "outer", Column: "k"}, nil, plan.KindColumn)
				lo := emit(c, plan.OpJoin, nil, []plan.VarID{ok[0], ik}, plan.KindOids, plan.KindOids)
				vals := emit(c, plan.OpFetch, nil, []plan.VarID{lo[0], ok[0]}, plan.KindColumn)
				n := emit(c, plan.OpAggr, plan.AggrAux{Func: algebra.AggrCount}, vals, plan.KindScalar)
				emit(c, plan.OpResult, nil, n)
			})},
		{name: "group whose pack changed", cat: cat, parent: grouped, reused: 1, // select
			child: derive(t, grouped, func(c *plan.Plan) {
				pk := instrOf(t, c, plan.OpPack)
				pk.Rets = []plan.VarID{c.NewVar(plan.KindColumn, "repacked")}
				instrOf(t, c, plan.OpAggr).Args = pk.Rets
			})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine(tc.cat, testMachine(), cost.Default())
			if _, _, err := eng.ExecuteOpts(tc.parent, tc.parentOpts); (err != nil) != tc.parentFails {
				t.Fatalf("parent run: %v", err)
			}
			opts := tc.childOpts
			opts.DerivedFrom = tc.parent
			got, prof, err := eng.ExecuteOpts(tc.child, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, wantProf, err := NewEngine(tc.cat, testMachine(), cost.Default()).ExecuteOpts(tc.child, tc.childOpts)
			if err != nil {
				t.Fatal(err)
			}
			if !ResultsEqual(got, want) {
				t.Errorf("results %v, a fresh engine's %v", got, want)
			}
			gotWork := workByInstr(prof)
			for idx, w := range workByInstr(wantProf) {
				if gotWork[idx] != w {
					t.Errorf("instr %d (%s): Work %+v, a fresh engine's %+v", idx, tc.child.Instrs[idx].Op, gotWork[idx], w)
				}
			}
			st := eng.CompileStats()
			if st.Derived != 1 || st.ReusedInstrs != tc.reused {
				t.Errorf("%d adoptions reused %d instructions, want 1 reusing %d", st.Derived, st.ReusedInstrs, tc.reused)
			}
			// No result value may live in an arena slot: the next run rewrites
			// it, and retiring the plan hands it to the pool.
			a := eng.sched[tc.child].arena
			for i, v := range got {
				if v.Kind != plan.KindColumn || v.Col.Len() == 0 {
					continue
				}
				for _, slots := range a.bufs {
					for _, buf := range slots {
						if cap(buf) > 0 && &v.Col.Values()[0] == &buf[:1][0] {
							t.Errorf("result %d aliases an arena slot", i)
						}
					}
				}
			}
		})
	}
}
