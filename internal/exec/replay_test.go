package exec

import (
	"math"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
)

// TestReplayMatchesEventCore is the replay's twin test: for every TPC-H and
// TPC-DS query, as the serial plan and as a statically parallelized one, a
// plan object's second run on a quiescent machine skips the event core, and
// returns the event core's results with the recorded run's makespan and
// per-op Work; the machine's clock ends where the replayed profile does, and
// its busy time doubles. A run over another catalog of the same data
// evaluates to the same Work, the recording's only key besides the core
// budget, and replays too. Each replay condition is then broken on its own,
// on an engine that has just recorded the plan, and the run must take the
// event core — counted, not inferred from timings — and still return the
// same results. A run that breaks a condition re-records: the same options
// once more replay.
func TestReplayMatchesEventCore(t *testing.T) {
	forEachSuitePlan(t, func(t *testing.T, sp suitePlan) {
		p := sp.p
		recorded := func(cfg sim.Config) (*Engine, []Value, *Profile) {
			t.Helper()
			eng := NewEngine(sp.cat, cfg, cost.Default())
			res, prof, err := eng.Execute(p)
			if err != nil {
				t.Fatal(err)
			}
			return eng, res, prof
		}
		eng, want, rec := recorded(testMachine())
		busy := eng.Machine().BusyNs
		got, prof, err := eng.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		if st := timeline(eng); st != (RunStats{Replayed: 1, Simulated: 1}) {
			t.Fatalf("second run on a quiescent machine: %+v, want one replayed", st)
		}
		if !ResultsEqual(got, want) {
			t.Fatalf("replayed results %v, event core's %v", got, want)
		}
		if !sameMakespan(prof.Makespan(), rec.Makespan()) {
			t.Errorf("replayed makespan %v, recorded %v", prof.Makespan(), rec.Makespan())
		}
		if prof.StartNs != rec.EndNs || eng.Machine().Now() != prof.EndNs {
			t.Errorf("replay ran from %v to %v on a clock now at %v; the recording ended at %v", prof.StartNs, prof.EndNs, eng.Machine().Now(), rec.EndNs)
		}
		if got := eng.Machine().BusyNs; got != 2*busy {
			t.Errorf("machine busy %v after the replay, %v after the recording", got, busy)
		}
		wantWork := workByInstr(rec)
		for idx, w := range workByInstr(prof) {
			if w != wantWork[idx] {
				t.Errorf("instr %d: replayed Work %+v, recorded %+v", idx, w, wantWork[idx])
			}
		}

		eng, _, _ = recorded(testMachine())
		got, prof, err = eng.ExecuteOpts(p, JobOptions{Catalog: sp.cat.Detached()})
		if err != nil {
			t.Fatal(err)
		}
		if st := timeline(eng); st != (RunStats{Replayed: 1, Simulated: 1}) || !sameMakespan(prof.Makespan(), rec.Makespan()) || !ResultsEqual(got, want) {
			t.Errorf("catalog epoch of the same data: %+v, makespan %v; want the recording's %v replayed", st, prof.Makespan(), rec.Makespan())
		}

		noisy := testMachine()
		noisy.Noise = sim.DefaultNoise()
		for _, c := range []struct {
			name    string
			cfg     sim.Config
			perturb func(*Engine) JobOptions
			// transient: the run records nothing, so the next plain run on
			// the drained machine replays the first recording.
			transient bool
		}{
			{"fault armed", testMachine(), func(e *Engine) JobOptions {
				e.Machine().InjectFault(sim.FaultEvent{AtNs: e.Machine().Now() + 1e15, Kind: sim.FaultSocketThrottle, Factor: 0.5})
				return JobOptions{}
			}, false},
			{"fault applied", testMachine(), func(e *Engine) JobOptions {
				e.Machine().InjectFault(sim.FaultEvent{Kind: sim.FaultCoreLoss, Count: 1})
				e.Run() // applies it; the lost core stays lost
				return JobOptions{}
			}, false},
			{"noise", noisy, func(*Engine) JobOptions { return JobOptions{} }, false},
			{"max cores", testMachine(), func(*Engine) JobOptions { return JobOptions{MaxCores: 2} }, false},
			{"job queued", testMachine(), func(e *Engine) JobOptions {
				if _, err := e.Submit(p, JobOptions{}); err != nil {
					t.Fatal(err)
				}
				return JobOptions{}
			}, true},
			{"copy exchange", testMachine(), func(*Engine) JobOptions { return JobOptions{CopyExchange: true} }, true},
		} {
			eng, _, _ := recorded(c.cfg)
			opts := c.perturb(eng)
			before := eng.RunStats()
			got, _, err := eng.ExecuteOpts(p, opts)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if st := eng.RunStats(); st.Replayed != 0 || st.Simulated != before.Simulated+1 {
				t.Errorf("%s: %+v before the run, %+v after: it did not take the event core", c.name, before, st)
			}
			if !ResultsEqual(got, want) {
				t.Errorf("%s: results %v, want %v", c.name, got, want)
			}
			if c.transient {
				eng.Run()
				_, prof, err := eng.Execute(p)
				if err != nil {
					t.Fatal(err)
				}
				if st := eng.RunStats(); st.Replayed != 1 || !sameMakespan(prof.Makespan(), rec.Makespan()) {
					t.Errorf("%s, then a plain run: %+v, makespan %v; want the recording's %v replayed", c.name, st, prof.Makespan(), rec.Makespan())
				}
			}
		}

		// A mismatch re-records: the same budget again replays.
		for run, step := range []struct {
			maxCores int
			want     RunStats
		}{{2, RunStats{Replayed: 1, Simulated: 2}}, {2, RunStats{Replayed: 2, Simulated: 2}}, {0, RunStats{Replayed: 2, Simulated: 3}}, {0, RunStats{Replayed: 3, Simulated: 3}}} {
			if _, _, err := eng.ExecuteOpts(p, JobOptions{MaxCores: step.maxCores}); err != nil {
				t.Fatal(err)
			}
			if st := timeline(eng); st != step.want {
				t.Fatalf("budget change, run %d: %+v, want %+v", run, st, step.want)
			}
		}
	})
}

// A run whose Work differs from the recording takes the event core even on a
// quiescent machine: an appended epoch of the joined table changes the join's
// Work, so the first run over it simulates and re-records, and the next
// replays. No run reports a build: the inner is a base column, whose index is
// the catalog's.
func TestReplayNeedsEqualWork(t *testing.T) {
	b := plan.NewBuilder()
	price := b.Bind("lineitem", "l_extendedprice")
	lo, _ := b.Join(b.Bind("lineitem", "l_quantity"), price)
	b.Result(b.Aggr(algebra.AggrSum, b.Fetch(lo, price)))
	p := b.Plan()
	cat := testCatalog(2_000)
	appended, err := cat.AppendRows("lineitem", map[string]storage.ColumnAppend{
		"l_shipdate": {Ints: []int64{1}}, "l_discount": {Ints: []int64{1}},
		"l_extendedprice": {Ints: []int64{150}}, "l_quantity": {Ints: []int64{150}},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(cat, testMachine(), cost.Default())
	var makespans []float64
	for run, step := range []struct {
		cat  *storage.Catalog
		want RunStats
	}{{cat, RunStats{Simulated: 1}}, {cat, RunStats{Replayed: 1, Simulated: 1}}, {appended, RunStats{Replayed: 1, Simulated: 2}}, {appended, RunStats{Replayed: 2, Simulated: 2}}} {
		_, prof, err := eng.ExecuteOpts(p, JobOptions{Catalog: step.cat})
		if err != nil {
			t.Fatal(err)
		}
		makespans = append(makespans, prof.Makespan())
		if st := timeline(eng); st != step.want {
			t.Fatalf("run %d (makespans %v): %+v, want %+v", run, makespans, st, step.want)
		}
		for _, op := range prof.Ops {
			if op.Work.HashBuilds != 0 {
				t.Fatalf("run %d: %s reports HashBuilds %d", run, op.Op, op.Work.HashBuilds)
			}
		}
	}
	if makespans[2] == makespans[0] {
		t.Fatalf("makespans %v: the appended epoch did not change the join's Work", makespans)
	}
}

// timeline is eng's run counters by how virtual time was found; whether a
// helper evaluated a run is the host's business.
func timeline(eng *Engine) RunStats {
	st := eng.RunStats()
	st.Helped = 0
	return st
}

// sameMakespan compares virtual makespans to a relative 1e-12: the event core
// itself rounds differently at a different absolute clock.
func sameMakespan(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Abs(b) }

// An evaluation error fails the run before anything reaches the machine, so
// the plan's arena goes back to its schedule and the machine never sees a job.
// With a helper sharing the run, an error on either worker stops both: the
// other leaves instead of waiting for a producer that will never be done —
// parked or not — the core budget is whole again, and the arena comes back
// once — the next run, over a catalog that has the column, checks the same
// arena out and returns the unhelped answer.
func TestEvaluationErrorReturnsArena(t *testing.T) {
	for _, fp := range forcedPools {
		name := "two workers"
		if fp.pool == parkingHelpers {
			name = "two workers parked"
		}
		t.Run(name, func(t *testing.T) { testTwoWorkerError(t, fp.pool) })
	}

	b := plan.NewBuilder()
	b.Result(b.Aggr(algebra.AggrSum, b.Bind("lineitem", "no_such_column")))
	p := b.Plan()
	eng := NewEngine(testCatalog(100), testMachine(), cost.Default())
	for run := 0; run < 2; run++ {
		if _, _, err := eng.Execute(p); err == nil {
			t.Fatal("bind of a missing column succeeded")
		}
		if s := eng.sched[p]; s == nil || s.arena == nil {
			t.Fatalf("run %d: the failed run's arena was not returned", run)
		}
	}
	if st := eng.RunStats(); st != (RunStats{}) || eng.Machine().Now() != 0 || !eng.Machine().Quiescent() {
		t.Fatalf("failed runs reached the machine: %+v, clock %v", st, eng.Machine().Now())
	}
}

// testTwoWorkerError is TestEvaluationErrorReturnsArena's two-worker case on
// the forced pool pool.
func testTwoWorkerError(t *testing.T, pool *helperPool) {
	useHelpers(t, pool)
	b := plan.NewBuilder()
	price := b.Bind("lineitem", "l_extendedprice")
	var sums []plan.VarID
	for k := 0; k < 8; k++ {
		sums = append(sums, b.Aggr(algebra.AggrSum, b.Fetch(b.Select(price, algebra.AtLeast(int64(100*k))), price)))
	}
	// testCatalog has no l_shipmode; ownCatalog has.
	b.Result(append(sums, b.Aggr(algebra.AggrSum, b.Bind("lineitem", "l_shipmode")))...)
	p := b.Plan()
	eng := NewEngine(testCatalog(2_000), testMachine(), cost.Default())
	with := ownCatalog(2_000)
	want, _, err := NewEngine(with, testMachine(), cost.Default()).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		if _, _, err := eng.Execute(p); err == nil {
			t.Fatal("bind of a missing column succeeded")
		}
		a := eng.sched[p].arena
		if a == nil {
			t.Fatalf("run %d: the failed run's arena was not returned", run)
		}
		if busy := pool.busy.Load(); busy != 0 {
			t.Fatalf("run %d: %d workers still hold the core budget", run, busy)
		}
		got, _, err := eng.ExecuteOpts(p, JobOptions{Catalog: with})
		if err != nil {
			t.Fatal(err)
		}
		if !ResultsEqual(got, want) {
			t.Fatalf("run %d: results %v after a failed run, want %v", run, got, want)
		}
		if eng.sched[p].arena != a {
			t.Fatalf("run %d: the next run did not check out and return the failed run's arena", run)
		}
	}
}
