package exec

import (
	"errors"
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

// parkingHelpers is forcedHelpers with no spin: every wait of its runs that
// does not find its condition true at once parks, so a lost wake-up — a
// producer's done flag, a stop, a helper leaving — hangs the test.
var parkingHelpers = &helperPool{cores: 2, force: true, parkAtOnce: true}

// forcedPools are the two forced pools, by name: a test of the helper runs
// under both, so it covers the wait's spin and its park.
var forcedPools = []struct {
	name string
	pool *helperPool
}{{"spin", forcedHelpers}, {"park", parkingHelpers}}

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
// joined allocates no more than the same run alone, on every P the host has.
// The helper's scratch and the done flags live in the arena and the producer
// lists in the schedule, all built on the first shared run. Each window of
// runs starts with the runtime's wait records stocked (stockWaitRecords), as
// in a process whose goroutines have parked before.
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
		stockWaitRecords(1024)
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

// stockWaitRecords parks n goroutines at once and wakes them, so that the
// runtime's caches of wait records (sudogs) hold about n. A goroutine that
// blocks takes a record from its P's cache, which holds 128 and refills from a
// central list that every GC empties; it returns the record to the cache of
// the P it wakes on. So in a process whose caches are cold, a worker that
// parks on one P and wakes on another allocates a record — up to one per park
// of a window, which is the runtime filling its caches, not an allocation of
// the helper's path.
func stockWaitRecords(n int) {
	ch := make(chan struct{})
	var parked, woken sync.WaitGroup
	parked.Add(n)
	woken.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			parked.Done()
			<-ch
			woken.Done()
		}()
	}
	parked.Wait()
	runtime.Gosched()
	close(ch)
	woken.Wait()
}

// TestStopWakesAParkedWorker: a worker parked on a producer that no worker
// will evaluate returns, reporting the stop, when another worker fails the
// run — the wake-up an error owes the run's sleepers.
func TestStopWakesAParkedWorker(t *testing.T) {
	eng := NewEngine(testCatalog(2_000), testMachine(), cost.Default())
	p := partitionedFetchPlan(2)
	j, err := eng.newJob(p, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := &j.arena.run
	r.begin(j, parkingHelpers)
	r.share(2)
	last := j.sched.order[len(j.sched.order)-1]
	if len(j.sched.prods[last]) == 0 {
		t.Fatalf("instruction %d has no producer to wait on", last)
	}
	parks := parkingHelpers.parks.Load()
	ok := make(chan bool)
	go func() {
		_, done := r.await(last)
		ok <- done
	}()
	for r.sleepers.Load() == 0 {
		runtime.Gosched()
	}
	r.fail(errors.New("stopped"))
	if <-ok {
		t.Fatal("a stopped run's parked worker reported its producers done")
	}
	if r.err == nil || parkingHelpers.parks.Load() != parks+1 {
		t.Fatalf("err %v, %d parks; want the stop's error and one park", r.err, parkingHelpers.parks.Load()-parks)
	}
	j.arena.release(j.sched)
}

// TestHelperLeavesWhileOwnerParksInRetract: the owner finishes the run's
// cursor alone and parks in retract until the helper that took its offer
// leaves; the helper's leaving wakes it, evaluateAll returns the unhelped
// answer, and the arena's next run, helped for real, is as clean as the
// first. The test plays the helper: its pool's one helper has no goroutine,
// so the test takes the offer and calls help only once the owner has parked.
func TestHelperLeavesWhileOwnerParksInRetract(t *testing.T) {
	cat := testCatalog(20_000)
	p := partitionedFetchPlan(8)
	useHelpers(t, &helperPool{cores: 1})
	want, prof, err := NewEngine(cat, testMachine(), cost.Default()).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	wantWork := workByInstr(prof)

	pool := &helperPool{cores: 2, force: true, parkAtOnce: true}
	h := &helper{wake: make(chan struct{}, 1)}
	pool.helpers.Store(&[]*helper{h})
	useHelpers(t, pool)
	left := make(chan struct{})
	go func() {
		defer close(left)
		r := h.next()
		for r.sleepers.Load() == 0 { // the owner has not parked yet
			runtime.Gosched()
		}
		pool.help(h, r)
	}()
	eng := NewEngine(cat, testMachine(), cost.Default())
	got, _, err := eng.Execute(p)
	<-left
	if err != nil || !ResultsEqual(got, want) {
		t.Fatalf("results %v (%v), want %v", got, err, want)
	}
	if st := pool.stats(); st.Joins != 1 || st.Parks != 1 || pool.waitNs.Load() != 0 || pool.retractNs.Load() == 0 || pool.busy.Load() != 0 {
		t.Fatalf("%+v, busy %d: want one join, one park, spent in retract, and the budget whole", st, pool.busy.Load())
	}
	if eng.RunStats().Helped != 0 {
		t.Fatal("a helper that joined after the cursor ran out was counted as helping")
	}

	a := eng.sched[p].arena
	useHelpers(t, parkingHelpers)
	got, prof, err = eng.ExecuteOpts(p, JobOptions{MaxCores: 2}) // simulated, not replayed
	if err != nil || !ResultsEqual(got, want) {
		t.Fatalf("next run: results %v (%v), want %v", got, err, want)
	}
	for idx, w := range workByInstr(prof) {
		if w != wantWork[idx] {
			t.Errorf("next run: instr %d: Work %+v, want %+v", idx, w, wantWork[idx])
		}
	}
	if eng.sched[p].arena != a || a.run.sleepers.Load() != 0 || parkingHelpers.busy.Load() != 0 {
		t.Fatal("the next run did not reuse the arena cleanly")
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
