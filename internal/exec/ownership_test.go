package exec

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/vec"
)

// The output-buffer seam (dest / done) picks one of three owners for a
// materializing instruction's output. TestOwnershipPathsAgree runs the same
// two clones of each materializing operator under every way an owner is
// chosen and requires the clones' columns (values, head sequence, name,
// dictionary), every shared instruction's Work, and the query result to be
// the same — and checks, white-box, that each run really took the path it is
// named for.

// ownShape is one partitioned materializing operator.
type ownShape struct {
	name string
	op   plan.OpCode
	// sliced: both clones slice one shared anchor (the basic mutation; clone 1
	// gets a non-zero head). Otherwise each clone covers its own anchor (the
	// medium mutation's residue) and clone 1's anchor is produced one
	// instruction later than clone 0's, so clone 0 runs only once the group's
	// gate has seen both anchors' producers complete.
	sliced bool
	// boundary (fetch only): the target is a view of the column's first half,
	// so later row ids are aligned away and clones write less than their
	// window.
	boundary bool
}

func ownShapes() []ownShape {
	var out []ownShape
	for _, op := range []plan.OpCode{plan.OpFetch, plan.OpFetchPos, plan.OpCalcVV, plan.OpCalcSV, plan.OpCalcSSV} {
		for _, sliced := range []bool{true, false} {
			shape := "propagated"
			if sliced {
				shape = "sliced"
			}
			out = append(out, ownShape{name: fmt.Sprintf("%s/%s", op, shape), op: op, sliced: sliced})
			if op == plan.OpFetch {
				out = append(out, ownShape{name: fmt.Sprintf("%s/%s/boundary", op, shape), op: op, sliced: sliced, boundary: true})
			}
		}
	}
	return out
}

// ownCatalog is testCatalog plus a dictionary-coded column, so fetches carry
// a dictionary through every owner.
func ownCatalog(n int) *storage.Catalog {
	cat := testCatalog(n)
	d := vec.NewDict()
	modes := []string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL"}
	codes := make([]int64, n)
	for i := range codes {
		codes[i] = d.Code(modes[(i*7)%len(modes)])
	}
	cat.MustTable("lineitem").MustAddColumn(storage.NewColumn("l_shipmode", 0, vec.NewDictCoded(codes, d)))
	return cat
}

// ownParts is lopsided, so the sliced clones' windows differ in length and
// the propagated shape's two anchor chains (clone 1's is one instruction
// longer) finish at different virtual times.
var ownParts = [2]plan.Part{{LoNum: 0, HiNum: 5, Den: 8}, {LoNum: 5, HiNum: 8, Den: 8}}

// ownPlan builds shape's plan: a prefix ending in the two clones, identical
// index for index whatever the suffix, then the consumers that decide who
// owns the clones' outputs — "pack" (exchange union → aggregate: a pack
// group), "aggr" (per-clone aggregates merged: arena slots) or "result" (the
// same, with the clones' columns exported: fresh buffers). Every variant's
// first result is the sum over both clones.
func ownPlan(sh ownShape, suffix string) (p *plan.Plan, clones [2]plan.VarID, nPrefix int) {
	b := plan.NewBuilder()
	p = b.Plan()
	part := func(pt plan.Part) { p.Instrs[len(p.Instrs)-1].Part = pt }

	price := b.Bind("lineitem", "l_extendedprice")
	qty := b.Bind("lineitem", "l_quantity")
	target := b.Bind("lineitem", "l_shipmode")
	seven := b.Const(7)
	if sh.boundary {
		target = b.CalcSV(algebra.CalcAdd, 0, price, false)
		part(plan.Part{LoNum: 0, HiNum: 1, Den: 2})
	}

	pred := algebra.AtLeast(300)
	var oids [2]plan.VarID
	if sh.sliced {
		oids[0] = b.Select(price, pred)
		oids[1] = oids[0]
	} else {
		oids[0] = b.Select(price, pred)
		part(ownParts[0])
		late := b.Select(price, pred)
		part(ownParts[1])
		oids[1] = b.SelectCand(price, late, algebra.FullRange())
	}
	var x, y [2]plan.VarID
	if sh.op != plan.OpFetch && sh.op != plan.OpFetchPos {
		for i := range x {
			if sh.sliced && i == 1 {
				x[1], y[1] = x[0], y[0]
				break
			}
			x[i], y[i] = b.Fetch(oids[i], price), b.Fetch(oids[i], qty)
		}
	}
	for i := range clones {
		switch sh.op {
		case plan.OpFetch:
			clones[i] = b.Fetch(oids[i], target)
		case plan.OpFetchPos:
			clones[i] = b.FetchPos(oids[i], target)
		case plan.OpCalcVV:
			clones[i] = b.CalcVV(algebra.CalcMul, x[i], y[i])
		case plan.OpCalcSV:
			clones[i] = b.CalcSV(algebra.CalcSub, 1000, x[i], true)
		case plan.OpCalcSSV:
			clones[i] = b.CalcSSV(algebra.CalcMul, seven, x[i], false)
		}
		if sh.sliced {
			part(ownParts[i])
		}
	}
	nPrefix = len(p.Instrs)

	if suffix == "pack" {
		b.Result(b.Aggr(algebra.AggrSum, b.Pack(clones[0], clones[1])))
		return p, clones, nPrefix
	}
	partials := b.Pack(b.Aggr(algebra.AggrSum, clones[0]), b.Aggr(algebra.AggrSum, clones[1]))
	sum := p.NewVar(plan.KindScalar, "sum")
	p.Append(&plan.Instr{Op: plan.OpMergeAggr, Aux: plan.AggrAux{Func: algebra.AggrSum},
		Args: []plan.VarID{partials}, Rets: []plan.VarID{sum}, Part: plan.FullPart()})
	if suffix == "result" {
		b.Result(sum, clones[0], clones[1])
	} else {
		b.Result(sum)
	}
	return p, clones, nPrefix
}

// ownRun is what one execution left behind: snapshots, because arena-owned
// buffers are rewritten by the next run.
type ownRun struct {
	results []Value
	work    map[int]algebra.Work
	cols    [2]*storage.Column // the clones' output columns themselves
	vals    [2][]int64         // copies of their values
}

// ownExecute runs p and, at virtual completion — the env still holds every
// value and the arena is not yet released — snapshots the clones' outputs
// and lets inspect look at the job's ownership state.
func ownExecute(t *testing.T, eng *Engine, p *plan.Plan, opts JobOptions, clones [2]plan.VarID, inspect func(j *PlanJob, r *ownRun)) *ownRun {
	t.Helper()
	job, err := eng.Submit(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := &ownRun{}
	job.OnDone = func(j *PlanJob) {
		for i, v := range clones {
			r.cols[i] = j.env[v].Col
			r.vals[i] = slices.Clone(r.cols[i].Values())
		}
		inspect(j, r)
	}
	eng.Run()
	if !job.Done {
		t.Fatal("job not done")
	}
	r.results = job.Results()
	r.work = workByInstr(job.Profile)
	return r
}

// aliases reports whether col's values are exactly buf[lo:lo+len].
func aliases(col *storage.Column, buf []int64, lo int) bool {
	v := col.Values()
	return len(v) == 0 || (lo < len(buf) && &v[0] == &buf[lo])
}

func TestOwnershipPathsAgree(t *testing.T) {
	cat := ownCatalog(8_000)

	// Each variant names the consumers that select an owner, the options,
	// and a white-box check that the named path is the one that ran. ci are
	// the clones' instruction indexes, pack the pack's (-1 without one).
	type check func(t *testing.T, sh ownShape, j *PlanJob, r, prev *ownRun, ci [2]int, pack int)
	group := func(j *PlanJob, ci [2]int) (*groupRun, int32) {
		gi := j.sched.cloneOf[ci[0]]
		if gi < 0 || gi != j.sched.cloneOf[ci[1]] {
			return nil, -1
		}
		return &j.arena.groupRuns[gi], gi
	}
	noArenaSlot := func(t *testing.T, j *PlanJob, ci [2]int) {
		for _, idx := range ci {
			if j.sched.outBuf[idx][0] != bufNone || j.arena.bufs[idx][0] != nil {
				t.Errorf("clone %d has an arena slot (class %d, buf %v)", idx, j.sched.outBuf[idx][0], j.arena.bufs[idx][0] != nil)
			}
		}
	}
	// shared: the clones write their windows of the group's one buffer and a
	// dense group packs as a view. A propagated group is gated, a sliced one
	// (one anchor, one producer) is not.
	shared := func(t *testing.T, sh ownShape, j *PlanJob, r, _ *ownRun, ci [2]int, pack int) {
		gr, gi := group(j, ci)
		if gr == nil || gr.bld == nil {
			t.Fatalf("pack group did not resolve: %+v", gr)
		}
		wantGates := 1
		if sh.sliced {
			wantGates = 0
		}
		if gates := len(j.sched.pending) - len(j.Plan.Instrs); gates != wantGates {
			t.Fatalf("%d gates in the schedule, want %d", gates, wantGates)
		}
		for m := range ci {
			if !aliases(r.cols[m], j.arena.groupBufs[gi], gr.offs[m]) {
				t.Errorf("clone %d does not write its window of the shared buffer", m)
			}
		}
		short := gr.written[0] < gr.offs[1]-gr.offs[0] || gr.written[1] < gr.offs[2]-gr.offs[1]
		if short != sh.boundary {
			t.Fatalf("boundary drop = %v (written %v of windows %v), want %v", short, gr.written, gr.offs, sh.boundary)
		}
		// A dense group packs as a view; a boundary drop makes
		// packView fall back to PackColumns over the builder views.
		if copied := workByInstr(j.Profile)[pack].BytesWritten > 0; copied != sh.boundary {
			t.Fatalf("pack copied = %v, want %v", copied, sh.boundary)
		}
	}
	fresh := func(t *testing.T, _ ownShape, j *PlanJob, _, _ *ownRun, ci [2]int, _ int) {
		noArenaSlot(t, j, ci)
		if j.sched.cloneOf[ci[0]] >= 0 {
			t.Error("result-reachable clones were grouped")
		}
	}
	variants := []struct {
		name, suffix   string
		opts           JobOptions
		runs           int
		propagatedOnly bool
		// helpers: a forced pool whose helper joins every run, so the clones
		// may run on two workers at once and race for the group's layout;
		// parkingHelpers' workers park at every wait.
		helpers *helperPool
		check   check
	}{
		{name: "shared", suffix: "pack", runs: 1, check: shared},
		// The group's windows are laid out, and its dictionary bound, once
		// per run whichever worker gets there first: a second layout would
		// reset a written window (the pack then copies) or race under -race.
		{name: "two-workers", suffix: "pack", runs: 3, helpers: forcedHelpers, check: shared},
		{name: "two-workers-fresh", suffix: "result", runs: 2, helpers: forcedHelpers, check: fresh},
		{name: "two-workers-parked", suffix: "pack", runs: 3, helpers: parkingHelpers, check: shared},
		{name: "two-workers-parked-fresh", suffix: "result", runs: 2, helpers: parkingHelpers, check: fresh},
		// One core runs the propagated shape's anchor chains one after the
		// other: the gate still holds clone 0 until clone 1's anchor exists.
		{name: "one-core", suffix: "pack", opts: JobOptions{MaxCores: 1}, runs: 1, propagatedOnly: true, check: shared},
		{name: "copy", suffix: "pack", opts: JobOptions{CopyExchange: true}, runs: 1,
			check: func(t *testing.T, _ ownShape, j *PlanJob, _, _ *ownRun, ci [2]int, pack int) {
				if gr, _ := group(j, ci); gr == nil || gr.bld != nil {
					t.Fatalf("CopyExchange touched the planned group: %+v", gr)
				}
				noArenaSlot(t, j, ci)
			}},
		{name: "arena", suffix: "aggr", runs: 2, check: func(t *testing.T, _ ownShape, j *PlanJob, r, prev *ownRun, ci [2]int, _ int) {
			for m, idx := range ci {
				if j.sched.cloneOf[idx] >= 0 || j.sched.outBuf[idx][0] != bufCol || !aliases(r.cols[m], j.arena.bufs[idx][0], 0) {
					t.Errorf("clone %d does not write its arena slot", m)
				}
				// The hot run rewrites the same buffer under the same wrapper.
				if prev != nil && (prev.cols[m] != r.cols[m] || !aliases(prev.cols[m], j.arena.bufs[idx][0], 0)) {
					t.Errorf("clone %d: second run did not reuse the slot and its memoized column", m)
				}
			}
		}},
		{name: "fresh", suffix: "result", runs: 1, check: fresh},
	}

	for _, sh := range ownShapes() {
		t.Run(sh.name, func(t *testing.T) {
			var base *ownRun
			var baseName string
			for _, v := range variants {
				if v.propagatedOnly && sh.sliced {
					continue
				}
				t.Run(v.name, func(t *testing.T) {
					if v.helpers != nil {
						useHelpers(t, v.helpers)
					}
					p, clones, nPrefix := ownPlan(sh, v.suffix)
					if err := p.Validate(); err != nil {
						t.Fatal(err)
					}
					producer := p.Producers()
					ci := [2]int{int(producer[clones[0]]), int(producer[clones[1]])}
					pack := -1
					if v.suffix == "pack" {
						pack = nPrefix
					}
					eng := NewEngine(cat, testMachine(), cost.Default())
					var got, prev *ownRun
					for run := 0; run < v.runs; run++ {
						prev = got
						got = ownExecute(t, eng, p, v.opts, clones, func(j *PlanJob, r *ownRun) {
							v.check(t, sh, j, r, prev, ci, pack)
						})
					}

					if got.results[0].Kind != plan.KindScalar || got.results[0].Scalar == 0 {
						t.Fatalf("degenerate result %v", got.results)
					}
					if sh.sliced && got.cols[1].Seq() == 0 {
						t.Fatal("sliced clone 1 has a zero head")
					}
					// Result-reachable columns are the clones' own, capped at
					// what was written: no spare capacity escapes.
					for m, res := range got.results[1:] {
						if res.Col != got.cols[m] {
							t.Fatalf("result %d is not clone %d's column", m+1, m)
						}
						if vals := res.Col.Values(); cap(vals) != len(vals) {
							t.Fatalf("result column %d has len %d cap %d", m+1, len(vals), cap(vals))
						}
					}
					if base == nil {
						base, baseName = got, v.name
						return
					}
					if len(got.results) == len(base.results) && !ResultsEqual(got.results, base.results) {
						t.Fatalf("results %v != %s's %v", got.results, baseName, base.results)
					}
					if !got.results[0].Equal(base.results[0]) {
						t.Fatalf("sum %v != %s's %v", got.results[0], baseName, base.results[0])
					}
					for i := 0; i < nPrefix; i++ {
						if got.work[i] != base.work[i] {
							t.Fatalf("instr %d (%s) Work %+v != %s's %+v", i, p.Instrs[i].Op, got.work[i], baseName, base.work[i])
						}
					}
					for m := range clones {
						g, b := got.cols[m], base.cols[m]
						if g.Seq() != b.Seq() || g.Name() != b.Name() || g.Dict() != b.Dict() || !slices.Equal(got.vals[m], base.vals[m]) {
							t.Fatalf("clone %d is %q seq %d dict %v len %d, %s's is %q seq %d dict %v len %d", m,
								g.Name(), g.Seq(), g.Dict() != nil, len(got.vals[m]), baseName, b.Name(), b.Seq(), b.Dict() != nil, len(base.vals[m]))
						}
					}
				})
			}
		})
	}
	t.Run("join", func(t *testing.T) { ownJoinPaths(t, cat) })
}

// ownJoinPaths is the same agreement for the one operator with two oid
// results, each owned on its own: a join whose results are (i) both dead
// intermediates — two arena slots, rewritten in place by the second run with
// whatever spare capacity the first left, (ii) one of them result-reachable —
// fresh every run, capped at its length, never an arena buffer — and (iii)
// both dead under CopyExchange. Values and every instruction's Work agree.
func ownJoinPaths(t *testing.T, cat *storage.Catalog) {
	build := func(exportInner bool) (p *plan.Plan, lo, ro plan.VarID) {
		b := plan.NewBuilder()
		price := b.Bind("lineitem", "l_extendedprice")
		ship := b.Bind("lineitem", "l_shipdate")
		// The inner is an intermediate whose prices repeat, so an outer
		// tuple finds several matches, ascending.
		inner := b.Fetch(b.Select(ship, algebra.AtMost(2)), price)
		lo, ro = b.Join(price, inner)
		sums := []plan.VarID{b.Aggr(algebra.AggrSum, b.Fetch(lo, price)), b.Aggr(algebra.AggrSum, b.FetchPos(ro, inner))}
		if exportInner {
			sums = append(sums, ro)
		}
		b.Result(sums...)
		return b.Plan(), lo, ro
	}
	type joinRun struct {
		results []Value
		work    map[int]algebra.Work
		oids    [2][]int64 // the join's two vectors as the run left them
		copies  [2][]int64
	}
	execute := func(eng *Engine, p *plan.Plan, opts JobOptions, vars [2]plan.VarID, inspect func(j *PlanJob, r *joinRun)) *joinRun {
		t.Helper()
		job, err := eng.Submit(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		r := &joinRun{}
		job.OnDone = func(j *PlanJob) {
			for i, v := range vars {
				r.oids[i] = j.env[v].Oids
				r.copies[i] = slices.Clone(r.oids[i])
			}
			inspect(j, r)
		}
		eng.Run()
		if !job.Done {
			t.Fatal("job not done")
		}
		r.results, r.work = job.Results(), workByInstr(job.Profile)
		return r
	}
	sameArray := func(a, b []int64) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

	var base *joinRun
	for _, v := range []struct {
		name        string
		exportInner bool
		opts        JobOptions
	}{
		{name: "both dead"},
		{name: "inner side exported", exportInner: true},
		{name: "copy", opts: JobOptions{CopyExchange: true}},
	} {
		t.Run(v.name, func(t *testing.T) {
			p, lo, ro := build(v.exportInner)
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			ji := int(p.Producers()[lo])
			eng := NewEngine(cat, testMachine(), cost.Default())
			var got, prev *joinRun
			for run := 0; run < 2; run++ {
				prev = got
				got = execute(eng, p, v.opts, [2]plan.VarID{lo, ro}, func(j *PlanJob, r *joinRun) {
					for ret, exported := range [2]bool{false, v.exportInner} {
						slot, out := j.arena.bufs[ji][ret], r.oids[ret]
						if exported {
							if j.sched.outBuf[ji][ret] != bufNone || slot != nil {
								t.Errorf("exported result %d has an arena slot", ret)
							}
							if cap(out) != len(out) {
								t.Errorf("exported result %d escapes with len %d cap %d", ret, len(out), cap(out))
							}
							if prev != nil && sameArray(prev.oids[ret], out) {
								t.Errorf("exported result %d reuses the previous run's buffer", ret)
							}
							continue
						}
						if j.sched.outBuf[ji][ret] != bufOids || !sameArray(slot, out) {
							t.Errorf("dead result %d is not written into its arena slot", ret)
						}
						if prev != nil && !sameArray(prev.oids[ret], out) {
							t.Errorf("dead result %d: second run did not rewrite the slot in place", ret)
						}
					}
				})
			}
			if len(got.copies[0]) == 0 || len(got.copies[0]) <= cat.MustTable("lineitem").Rows()/16+1 {
				t.Fatalf("%d matches: the join never outgrows its slot's initial capacity", len(got.copies[0]))
			}
			if v.exportInner && !slices.Equal(got.results[2].Oids, got.copies[1]) {
				t.Fatal("the exported vector is not the join's inner result")
			}
			if base == nil {
				base = got
				return
			}
			if !ResultsEqual(got.results[:2], base.results[:2]) {
				t.Fatalf("results %v != %v", got.results[:2], base.results[:2])
			}
			for ret := range got.copies {
				if !slices.Equal(got.copies[ret], base.copies[ret]) {
					t.Fatalf("join result %d differs from the first variant's", ret)
				}
			}
			for i := 0; i < len(p.Instrs)-1; i++ {
				if got.work[i] != base.work[i] {
					t.Fatalf("instr %d (%s) Work %+v != %+v", i, p.Instrs[i].Op, got.work[i], base.work[i])
				}
			}
		})
	}
}
