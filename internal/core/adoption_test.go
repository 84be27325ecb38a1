package core_test

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpcds"
	"repro/internal/tpch"
)

// convergeTwinned converges s and replays every attempt's plan object on
// twin, an engine that is never told a parent and so compiles every plan into
// a pool-fed arena. It returns the first attempt the two engines disagree on:
// results, virtual time, op order or per-op Work. A plan leaves the twin the
// moment the session moves off it.
//
// A third engine over the twin's data runs every attempt's plan object twice,
// and the second run must report every instruction's Work as the first did: a
// measurement is a function of (plan, data), not of how often the plan ran.
// (Its own engine, so the twin's clock stays in step with the session's.)
//
// The twin may share the session's catalog: a base column's hash index is
// the catalog's and is charged to no plan, so which engine probed it first
// changes no measurement.
//
// Every step that reuses the previous search instead of searching is checked
// against a fresh MutateMostExpensive over the same run on a twin Mutator
// (s must use core.DefaultMutationConfig): the plan pointer it returns is the
// plan the session runs next, and its Mutation is the one that run records.
func convergeTwinned(s *core.Session, twin *exec.Engine) error {
	again := exec.NewEngine(twin.Catalog(), twin.Machine().Config(), twin.Params())
	twinMut := core.NewMutator(core.DefaultMutationConfig())
	var fresh *core.Mutation // the twin search's answer for the previous step, if it reused
	for run := 0; !s.Done(); run++ {
		reused := s.SearchStats().Reused
		if _, err := s.Step(); err != nil {
			return err
		}
		a := s.Attempts()[run]
		if fresh != nil && a.Mutation != *fresh {
			return fmt.Errorf("run %d: reused search recorded %+v, a fresh search %+v", run, a.Mutation, *fresh)
		}
		fresh = nil
		if s.SearchStats().Reused > reused {
			np, mut, err := twinMut.MutateMostExpensive(a.Plan, a.Profile)
			if err != nil {
				return fmt.Errorf("run %d: twin search: %w", run, err)
			}
			if np != s.Current() {
				return fmt.Errorf("run %d: reused search kept the plan, a fresh search mutated it (%+v)", run, mut)
			}
			fresh = &mut
		}
		res, prof, err := twin.Execute(a.Plan)
		if err != nil {
			return fmt.Errorf("run %d: replay: %w", run, err)
		}
		if s.Done() || s.Current() != a.Plan {
			twin.Retire(a.Plan)
		}
		if !exec.ResultsEqual(a.Results, res) {
			return fmt.Errorf("run %d: results diverge", run)
		}
		if got := prof.Makespan(); got != a.ExecNs {
			return fmt.Errorf("run %d: virtual time %v adopted, %v replayed", run, a.ExecNs, got)
		}
		if len(prof.Ops) != len(a.Profile.Ops) {
			return fmt.Errorf("run %d: %d ops adopted, %d replayed", run, len(a.Profile.Ops), len(prof.Ops))
		}
		for k, want := range a.Profile.Ops {
			if got := prof.Ops[k]; got != want {
				return fmt.Errorf("run %d op %d:\n  adopted:  %+v\n  replayed: %+v", run, k, want, got)
			}
		}
		var work [2]map[int]algebra.Work
		for i := range work {
			_, p, err := again.Execute(a.Plan)
			if err != nil {
				return fmt.Errorf("run %d: rerun %d: %w", run, i, err)
			}
			work[i] = make(map[int]algebra.Work, len(p.Ops))
			for _, op := range p.Ops {
				work[i][op.Instr] = op.Work
			}
		}
		again.Retire(a.Plan)
		for instr, w := range work[0] {
			if work[1][instr] != w {
				return fmt.Errorf("run %d instr %d (%s): Work on the plan object's next run %+v, first %+v", run, instr, a.Plan.Instrs[instr].Op, work[1][instr], w)
			}
		}
	}
	return nil
}

// A mutated plan that starts from its parent's arena must be measured exactly
// as if it had been compiled with no parent in sight: the convergence
// algorithm's only input is the plan's execution time (§3.3), so that time is
// a function of the plan and the data. Every TPC-H / TPC-DS convergence is
// checked attempt by attempt, and on a second run of each attempt's plan; the
// joins over an intermediate inner (TPC-H Q4 / Q8 / Q9 / Q17 / Q19, TPC-DS
// Q3 / Q5) are where a wrapper's cached hash index used to hide the build. An
// attempt's first run also takes the parent run's value and Work for every
// reusable instruction, so a wrongly reused value or record fails here too —
// and the test fails when no instruction was reused at all.
func TestAdoptionIsInvisible(t *testing.T) {
	type suite struct {
		name     string
		generate func() *storage.Catalog
		numbers  []int
		query    func(int) *plan.Plan
	}
	suites := []suite{
		{"tpch", func() *storage.Catalog { return tpch.Generate(tpch.Config{SF: 0.5, Seed: 42}) }, tpch.QueryNumbers(), tpch.MustQuery},
		{"tpcds", func() *storage.Catalog { return tpcds.Generate(tpcds.Config{SF: 0.5, Seed: 42}) }, tpcds.QueryNumbers(), tpcds.MustQuery},
	}
	var adopted exec.CompileStats
	for _, su := range suites {
		cat := su.generate()
		for _, n := range su.numbers {
			a := exec.NewEngine(cat, sim.TwoSocket(), cost.Default())
			b := exec.NewEngine(cat, sim.TwoSocket(), cost.Default())
			s := core.NewSession(a, su.query(n), core.DefaultMutationConfig(), core.ConvergenceConfig{})
			if err := convergeTwinned(s, b); err != nil {
				t.Errorf("%s q%d: %v", su.name, n, err)
			}
			st := a.CompileStats()
			adopted.Derived += st.Derived
			adopted.ReusedInstrs += st.ReusedInstrs
		}
	}
	t.Logf("%d adopted arenas reused %d instructions", adopted.Derived, adopted.ReusedInstrs)
	if err := adoptionRan(adopted); err != nil {
		t.Fatal(err)
	}
}

// adoptionRan fails a twin test whose sessions never took the path under
// test: no plan adopted its parent's arena, or no instruction took its
// parent's value and Work.
func adoptionRan(st exec.CompileStats) error {
	switch {
	case st.Derived == 0:
		return fmt.Errorf("no plan adopted its parent's arena: the path under test never ran")
	case st.ReusedInstrs == 0:
		return fmt.Errorf("%d plans adopted a parent's arena, but no instruction reused its parent's value: the reuse path never ran", st.Derived)
	}
	return nil
}
