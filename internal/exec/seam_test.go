package exec

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/heuristic"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/tpcds"
	"repro/internal/tpch"
)

// suitePlan is one plan of the whole-suite twin tests: a TPC-H or TPC-DS
// query, serial or statically parallelized, over its suite's catalog.
type suitePlan struct {
	suite string
	qn    int
	cat   *storage.Catalog
	p     *plan.Plan
	seed  int64 // distinct per plan
}

// forEachSuitePlan runs f as a subtest on every TPC-H and TPC-DS query, as the
// serial plan and as heuristic.Parallelize(…, 8).
func forEachSuitePlan(t *testing.T, f func(t *testing.T, sp suitePlan)) {
	suites := []struct {
		name    string
		cat     *storage.Catalog
		numbers []int
		query   func(int) *plan.Plan
	}{
		{"tpch", tpch.Generate(tpch.Config{SF: 0.2, Seed: 7}), tpch.QueryNumbers(), tpch.MustQuery},
		{"tpcds", tpcds.Generate(tpcds.Config{SF: 1, Seed: 7, SkewTheta: 1}), tpcds.QueryNumbers(), tpcds.MustQuery},
	}
	for si, su := range suites {
		for _, qn := range su.numbers {
			serial := su.query(qn)
			parallel, err := heuristic.Parallelize(serial, su.cat, heuristic.Config{Partitions: 8})
			if err != nil {
				t.Fatal(err)
			}
			for pi, p := range []*plan.Plan{serial, parallel} {
				shape := [...]string{"serial", "parallel"}[pi]
				t.Run(fmt.Sprintf("%s/q%d/%s", su.name, qn, shape), func(t *testing.T) {
					f(t, suitePlan{suite: su.name, qn: qn, cat: su.cat, p: p, seed: int64(1000*si + 10*qn + pi)})
				})
			}
		}
	}
}

// TestEvaluateNeedsNoMachine is the proof that evaluate / account is a seam
// and not a naming convention, and that an instruction's Work is a function of
// the plan and the data alone: for every TPC-H and TPC-DS query, as the serial
// plan and as a statically parallelized one, the plan object is executed
// twice, then evaluated evalRuns more times on one engine whose machine is
// taken away — first in the schedule's compiled order, the one every run
// evaluates in, then in seeded random valid topological orders — each run
// reusing the previous run's arena. No evaluated task is ever accounted and
// nothing virtually completes, yet the results, and every instruction's Work,
// equal the first machine run's on every run — packs included. A join over an
// intermediate inner reports no build at all: the inner's producer builds that
// index on every run and is charged for it. A propagated pack group's clones
// wait on its gate, so the group resolves in every order and the pack reports
// PackColumnsView's zero movement in every order. TPC-H Q19 must have a gate,
// or that half of the test is vacuous. Then the plan object is evaluated
// helpedRuns more times with the evaluation helper forced to join, under each
// of forcedPools: the owner and the helper claim instructions from one cursor,
// and results and Work must still be the machine run's whether a wait spins
// before it parks or parks at once. Under -race this is the helper's oracle;
// under each pool some instruction of the suite must have been evaluated by
// the helper, and under parkingHelpers some wait must have parked (given two
// Ps), or that half is vacuous.
func TestEvaluateNeedsNoMachine(t *testing.T) {
	const evalRuns = 4 // compiled order, then three random orders
	const helpedRuns = 3
	helped := map[string]int64{}
	parks := parkingHelpers.parks.Load()
	forEachSuitePlan(t, func(t *testing.T, sp suitePlan) {
		p := sp.p
		eng := NewEngine(sp.cat, testMachine(), cost.Default())
		want, prof, err := eng.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		wantWork := workByInstr(prof)
		// The second run replays only if every instruction's Work matches;
		// otherwise the event core reports the Work that differs.
		_, prof2, err := eng.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		for idx, w := range workByInstr(prof2) {
			if w != wantWork[idx] {
				t.Errorf("instr %d (%s): second run's Work %+v, first run's %+v", idx, p.Instrs[idx].Op, w, wantWork[idx])
			}
		}

		rng := rand.New(rand.NewSource(sp.seed))
		mach := eng.mach
		for run := 0; run < evalRuns; run++ {
			j, err := eng.newJob(p, JobOptions{})
			if err != nil {
				t.Fatal(err)
			}
			order := j.sched.order
			if run > 0 {
				order = topoOrder(j.sched, rng)
			}
			eng.mach = nil // any use of the event core now panics
			for _, i := range order {
				idx := int(i)
				w, err := j.evaluate(idx, &j.arena.scratch[0])
				if err != nil {
					t.Fatalf("seed %d run %d: instr %d (%s): %v", sp.seed, run, idx, p.Instrs[idx].Op, err)
				}
				if w != wantWork[idx] {
					t.Errorf("seed %d run %d: instr %d (%s): Work %+v, through the machine %+v", sp.seed, run, idx, p.Instrs[idx].Op, w, wantWork[idx])
				}
			}
			if got := j.Results(); len(got) == 0 || !ResultsEqual(got, want) {
				t.Fatalf("seed %d run %d: results %v, through the machine %v", sp.seed, run, got, want)
			}
			if run == 0 {
				// Q19's packed inner is a propagated group over three arms.
				if sp.suite == "tpch" && sp.qn == 19 && len(j.sched.pending) == len(p.Instrs) {
					t.Error("Q19's pack group has no gate: the order-free pack checks are vacuous")
				}
				checkInnerBuilds(t, p, j.env, wantWork, sp.suite == "tpch" && (sp.qn == 4 || sp.qn == 19))
			}
			eng.mach = mach
			j.arena.release(j.sched)
		}

		// The same plan object, evaluated with a helper forced to join every
		// run, its waits spinning first and then parking at once: whichever
		// worker claimed an instruction, its results and every instruction's
		// Work are the machine run's.
		for _, fp := range forcedPools {
			useHelpers(t, fp.pool)
			before := eng.RunStats().Helped
			eng.mach = nil
			for run := 0; run < helpedRuns; run++ {
				j, err := eng.newJob(p, JobOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := j.evaluateAll(); err != nil {
					t.Fatalf("%s: helped run %d: %v", fp.name, run, err)
				}
				for idx := range p.Instrs {
					if w := j.arena.work[idx]; w != wantWork[idx] {
						t.Errorf("%s: helped run %d: instr %d (%s): Work %+v, through the machine %+v", fp.name, run, idx, p.Instrs[idx].Op, w, wantWork[idx])
					}
				}
				if got := j.Results(); len(got) == 0 || !ResultsEqual(got, want) {
					t.Fatalf("%s: helped run %d: results %v, through the machine %v", fp.name, run, got, want)
				}
				j.arena.release(j.sched)
			}
			eng.mach = mach
			helped[fp.name] += eng.RunStats().Helped - before
		}
	})
	for _, fp := range forcedPools {
		if helped[fp.name] == 0 {
			t.Errorf("%s: the helper evaluated no instruction of any suite plan: the helped half is vacuous", fp.name)
		}
	}
	// With one P a worker runs until it blocks, so the one that got the P
	// may finish the run without waiting at all.
	if parkingHelpers.parks.Load() == parks && runtime.GOMAXPROCS(0) >= 2 {
		t.Error("no wait parked under parkingHelpers: the park half is vacuous")
	}
}

// checkInnerBuilds checks that no join over an intermediate inner reports a
// build and that the inner's producer reports one over the inner's length.
// mustHave is set for the queries whose builds used to depend on the run
// number — Q4 built its intermediate inners on a plan object's first run
// only, Q19 its packed inner on every run — so finding no such join there
// means the test went vacuous.
func checkInnerBuilds(t *testing.T, p *plan.Plan, env []Value, work map[int]algebra.Work, mustHave bool) {
	t.Helper()
	producer := p.Producers()
	found := false
	for idx, in := range p.Instrs {
		if in.Op != plan.OpJoin {
			continue
		}
		src := int(producer[in.Args[1]])
		if src < 0 || p.Instrs[src].Op == plan.OpBind {
			continue
		}
		found = true
		if w := work[idx]; w.HashBuilds != 0 {
			t.Errorf("join %d over an intermediate inner (instr %d) reports HashBuilds %d", idx, src, w.HashBuilds)
		}
		if n := int64(env[in.Args[1]].Len()); work[src].HashBuilds < n {
			t.Errorf("instr %d (%s) produces join %d's %d-tuple inner but reports HashBuilds %d", src, p.Instrs[src].Op, idx, n, work[src].HashBuilds)
		}
	}
	if mustHave && !found {
		t.Error("no join over an intermediate inner: the build checks are vacuous")
	}
}

// topoOrder returns a random valid evaluation order of s's instructions: each
// step picks uniformly among the instructions whose producers have all been
// evaluated. A gate is passed through, as compileOrder and release do: once
// its producers are all evaluated it counts itself off its clones and is not
// emitted.
func topoOrder(s *planSchedule, rng *rand.Rand) []int32 {
	n := int32(len(s.cloneOf))
	pending := slices.Clone(s.pending)
	ready := slices.Clone(s.roots)
	order := make([]int32, 0, n)
	var resolve func(w int32)
	resolve = func(w int32) {
		if pending[w]--; pending[w] != 0 {
			return
		}
		if w < n {
			ready = append(ready, w)
			return
		}
		for _, c := range s.waiters[w] {
			resolve(c)
		}
	}
	for len(ready) > 0 {
		k := rng.Intn(len(ready))
		idx := ready[k]
		ready = slices.Delete(ready, k, k+1)
		order = append(order, idx)
		for _, w := range s.waiters[idx] {
			resolve(w)
		}
	}
	return order
}
