package exec

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/heuristic"
	"repro/internal/plan"
	"repro/internal/tpch"
)

// forcedHelpers is a pool of one helper with a budget of two cores, whatever
// GOMAXPROCS is, that every run offers itself to and waits for: the helper
// joins every run, serial plans and short ones included. With one P the two
// workers interleave instead of running in parallel, which is all the race
// detector needs.
var forcedHelpers = &helperPool{cores: 2, force: true}

// forceHelper makes every run of the test share its evaluation with a helper.
func forceHelper(t testing.TB) {
	prev := evalHelpers
	evalHelpers = forcedHelpers
	t.Cleanup(func() { evalHelpers = prev })
}

// useHelpers runs the test on pool instead of the process's.
func useHelpers(t testing.TB, pool *helperPool) {
	prev := evalHelpers
	evalHelpers = pool
	t.Cleanup(func() { evalHelpers = prev })
}

// TestHelperGates checks when a run offers itself: only a plan of DOP ≥ 2
// whose last evaluation took at least helpMinEvalNs, and only when the core
// budget has room — otherwise the offer is declined and counted. A helper
// that takes an offer is counted as a join, and the run it evaluated in as
// helped.
func TestHelperGates(t *testing.T) {
	pool := &helperPool{cores: 2}
	useHelpers(t, pool)
	eng := NewEngine(testCatalog(20_000), testMachine(), cost.Default())
	parallel, serial := partitionedFetchPlan(8), partitionedFetchPlan(1)
	// run executes p after setting its last evaluation length to ns (first
	// runs excepted: nothing is measured yet).
	run := func(p *plan.Plan, ns int64) {
		t.Helper()
		if s := eng.sched[p]; s != nil {
			s.evalNs.Store(ns)
		}
		if _, _, err := eng.Execute(p); err != nil {
			t.Fatal(err)
		}
	}
	run(parallel, 0)
	run(serial, 0)
	run(parallel, helpMinEvalNs-1)
	if st := pool.stats(); st != (HelperStats{}) {
		t.Fatalf("short runs offered themselves: %+v", st)
	}
	run(serial, helpMinEvalNs)
	if st := pool.stats(); st != (HelperStats{}) {
		t.Fatalf("a long serial run offered itself: %+v", st)
	}
	pool.busy.Store(1) // another evaluation holds the second core
	run(parallel, helpMinEvalNs)
	pool.busy.Store(0)
	if st := pool.stats(); st.Declined != 1 || st.Joins != 0 {
		t.Fatalf("a long run with no free core: %+v, want one declined", st)
	}
	if runtime.GOMAXPROCS(0) < 2 {
		return // the helper gets a P only when the owner yields
	}
	for i := 0; i < 2_000 && eng.RunStats().Helped == 0; i++ {
		run(parallel, helpMinEvalNs)
	}
	if st := pool.stats(); st.Joins == 0 || eng.RunStats().Helped == 0 || st.Declined != 1 {
		t.Fatalf("long runs of a DOP-8 plan with a free core: %+v, %+v; want joins and helped runs", st, eng.RunStats())
	}
}

// TestHelpedRunAllocatesNothingMore: a converged plan's run with a helper
// joined allocates no more than the same run alone. The helper's scratch and
// the done flags live in the arena and the producer lists in the schedule,
// all built on the first shared run.
func TestHelpedRunAllocatesNothingMore(t *testing.T) {
	skipIfPoolsAreLossy(t)
	cat := tpch.Generate(tpch.Config{SF: 0.05, Seed: 7})
	p, err := heuristic.Parallelize(tpch.MustQuery(9), cat, heuristic.Config{Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	perRun := func(pool *helperPool) (float64, RunStats) {
		useHelpers(t, pool)
		eng := NewEngine(cat, testMachine(), cost.Default())
		for i := 0; i < 3; i++ {
			if _, _, err := eng.Execute(p); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 50
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			if _, _, err := eng.Execute(p); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / runs, eng.RunStats()
	}
	alone, st := perRun(&helperPool{cores: 1})
	if st.Helped != 0 {
		t.Fatalf("a one-core budget helped %d runs", st.Helped)
	}
	helped, st := perRun(forcedHelpers)
	t.Logf("%.2f allocs per run alone, %.2f with a helper (%d of %d runs helped)", alone, helped, st.Helped, st.Replayed+st.Simulated)
	if st.Helped == 0 {
		t.Fatal("no run was helped: the comparison is vacuous")
	}
	// An allocation the helper's path made per run would add one per run;
	// the runtime's own (a pool refilled after a GC) stay far below that.
	if helped-alone >= 0.5 {
		t.Fatalf("a helped run allocates %.2f objects, the same run alone %.2f", helped, alone)
	}
}

// skipIfPoolsAreLossy skips allocation measurements under the race detector,
// whose sync.Pool drops Puts on purpose (the algebra kernels pool their group
// scratch). Detected by behaviour: a Get/Put round trip on a warm pool
// allocates only when the pool is lossy.
func skipIfPoolsAreLossy(t *testing.T) {
	t.Helper()
	pool := sync.Pool{New: func() any { return new(int) }}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 1000; i++ {
		pool.Put(pool.Get())
	}
	runtime.ReadMemStats(&m1)
	if m1.Mallocs-m0.Mallocs > 100 {
		t.Skip("sync.Pool is lossy in this build (race detector): allocation counts are exact only without it")
	}
}
