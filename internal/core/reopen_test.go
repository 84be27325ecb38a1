package core

import (
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
)

// appendTestRows grows the fixture lineitem table by n rows and returns the
// mutated copy-on-write catalog.
func appendTestRows(t *testing.T, cat *storage.Catalog, n int) *storage.Catalog {
	t.Helper()
	ship := make([]int64, n)
	disc := make([]int64, n)
	price := make([]int64, n)
	key := make([]int64, n)
	for i := 0; i < n; i++ {
		ship[i] = int64((i * 13) % 365)
		disc[i] = int64(i % 11)
		price[i] = int64(150 + i%800)
		key[i] = int64(i % 7)
	}
	ncat, err := cat.AppendRows("lineitem", map[string]storage.ColumnAppend{
		"l_shipdate":      {Ints: ship},
		"l_discount":      {Ints: disc},
		"l_extendedprice": {Ints: price},
		"l_key":           {Ints: key},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ncat
}

// TestReopenForDataWarmBeatsCold is the dataset-epoch acceptance path: a
// converged session survives an append by re-converging warm — seeded from
// its learned plan — in at most half the runs of a cold convergence on the
// mutated data, and its post-churn results are bit-identical to a session
// converged from scratch on that data.
func TestReopenForDataWarmBeatsCold(t *testing.T) {
	cat := testCatalog(400_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	s := NewSession(eng, selectPlan(), DefaultMutationConfig(), ConvergenceConfig{})
	if _, err := s.Converge(); err != nil {
		t.Fatal(err)
	}

	ncat := appendTestRows(t, cat, 100_000)

	pre := len(s.Attempts())
	if !s.ReopenForData() {
		t.Fatal("ReopenForData refused a converged session")
	}
	if s.Done() {
		t.Fatal("session still done after data reopen")
	}
	for !s.Done() {
		if _, err := s.StepWith(exec.JobOptions{Catalog: ncat}); err != nil {
			t.Fatal(err)
		}
		if len(s.Attempts())-pre > 60 {
			t.Fatal("warm re-convergence did not halt within 60 runs")
		}
	}
	warm := len(s.Attempts()) - pre

	eng2 := exec.NewEngine(ncat, testMachine(), cost.Default())
	cold := NewSession(eng2, selectPlan(), DefaultMutationConfig(), ConvergenceConfig{})
	coldRep, err := cold.Converge()
	if err != nil {
		t.Fatal(err)
	}
	if warm*2 > coldRep.TotalRuns {
		t.Fatalf("warm re-convergence took %d runs, cold took %d — want warm <= half", warm, coldRep.TotalRuns)
	}

	warmRes, _, err := eng.ExecuteOpts(s.Best(), exec.JobOptions{Catalog: ncat})
	if err != nil {
		t.Fatal(err)
	}
	coldRes, _, err := eng2.Execute(cold.Best())
	if err != nil {
		t.Fatal(err)
	}
	if !exec.ResultsEqual(warmRes, coldRes) {
		t.Fatal("post-churn results differ from a cold convergence on the mutated data")
	}
}

// TestReopenForDataFreshSessionNoop: a session that has never executed has
// nothing stale; the reopen must leave it untouched and valid.
func TestReopenForDataFreshSessionNoop(t *testing.T) {
	cat := testCatalog(10_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	s := NewSession(eng, selectPlan(), DefaultMutationConfig(), ConvergenceConfig{})
	if s.ReopenForData() {
		t.Fatal("fresh session reported a data reopen")
	}
	if s.Done() {
		t.Fatal("fresh session marked done")
	}
	if _, err := s.Converge(); err != nil {
		t.Fatal(err)
	}
}

// TestReopenForDataMidAdaptation: an epoch bump that lands while a session is
// still converging folds the partial instance and restarts from the best plan
// so far; the session still converges and verifies results on the new data.
func TestReopenForDataMidAdaptation(t *testing.T) {
	cat := testCatalog(200_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	s := NewSession(eng, selectPlan(), DefaultMutationConfig(), ConvergenceConfig{})
	for i := 0; i < 5; i++ {
		cont, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !cont {
			t.Fatal("converged before the bump; fixture too small")
		}
	}
	ncat := appendTestRows(t, cat, 50_000)
	if !s.ReopenForData() {
		t.Fatal("mid-adaptation reopen refused")
	}
	runs := 0
	for !s.Done() {
		if _, err := s.StepWith(exec.JobOptions{Catalog: ncat}); err != nil {
			t.Fatal(err)
		}
		if runs++; runs > 60 {
			t.Fatal("did not halt")
		}
	}
	got, _, err := eng.ExecuteOpts(s.Best(), exec.JobOptions{Catalog: ncat})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := exec.NewEngine(ncat, testMachine(), cost.Default()).Execute(selectPlan())
	if err != nil {
		t.Fatal(err)
	}
	if !exec.ResultsEqual(got, want) {
		t.Fatal("results diverge from serial execution on the mutated data")
	}
}

// TestSessionKeepsSerialAndLatestProfiles: a session must not pin one
// profile and one result set per run it ever made — converging, or reopened
// every epoch. After a plain convergence and after each of k data reopens,
// exactly the serial run and the latest run hold theirs; the trace itself
// (Attempts, Report.History) keeps every run, and VerifyResults still holds
// each new run against the serial run's results.
func TestSessionKeepsSerialAndLatestProfiles(t *testing.T) {
	eng := exec.NewEngine(testCatalog(200_000), testMachine(), cost.Default())
	s := NewSession(eng, selectPlan(), DefaultMutationConfig(), ConvergenceConfig{})
	s.VerifyResults = true
	if _, err := s.Converge(); err != nil {
		t.Fatal(err)
	}
	check := func(cycle int) {
		t.Helper()
		att := s.Attempts()
		if len(att) < 3 {
			t.Fatalf("cycle %d: %d attempts, too few to tell", cycle, len(att))
		}
		for i, a := range att {
			if a.Plan == nil || a.ExecNs <= 0 {
				t.Fatalf("cycle %d: attempt %d lost its plan or time", cycle, i)
			}
			held := i == 0 || i == len(att)-1
			if (a.Profile != nil) != held || (a.Results != nil) != held {
				t.Fatalf("cycle %d: attempt %d of %d holds profile %v, results %v", cycle, i, len(att), a.Profile != nil, a.Results != nil)
			}
		}
		rep := s.Report()
		if len(rep.Attempts) != len(att) || len(rep.History) != len(att) {
			t.Fatalf("cycle %d: report lists %d attempts / %d history entries of %d runs", cycle, len(rep.Attempts), len(rep.History), len(att))
		}
		for i, ns := range rep.History {
			if ns != att[i].ExecNs {
				t.Fatalf("cycle %d: history[%d] = %v, attempt ran %v", cycle, i, ns, att[i].ExecNs)
			}
		}
	}
	check(0)
	for cycle := 1; cycle <= 4; cycle++ {
		before := len(s.Attempts())
		if !s.ReopenForData() {
			t.Fatal("ReopenForData refused a converged session")
		}
		if len(s.Attempts()) != before {
			t.Fatalf("cycle %d: the reopen changed the attempt count %d -> %d", cycle, before, len(s.Attempts()))
		}
		for !s.Done() {
			if _, err := s.Step(); err != nil {
				t.Fatal(err) // includes a VerifyResults mismatch with the serial run
			}
			if len(s.Attempts())-before > 60 {
				t.Fatal("warm re-convergence did not halt within 60 runs")
			}
		}
		check(cycle)
	}
}

// TestReopenForDrift: a session converged unthrottled serves under a small
// admission budget; Reopen with that budget (what the plan cache's drift
// detector calls) restarts exploration from serial, sized to the observed
// budget, and lands on a plan that serves the budget at least
// as well as the throttled wide plan did.
func TestReopenForDrift(t *testing.T) {
	cat := testCatalog(400_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	s := NewSession(eng, selectPlan(), DefaultMutationConfig(), ConvergenceConfig{})
	if _, err := s.Converge(); err != nil {
		t.Fatal(err)
	}

	budget := 2
	_, prof, err := eng.ExecuteOpts(s.Best(), exec.JobOptions{MaxCores: budget})
	if err != nil {
		t.Fatal(err)
	}
	observed := prof.Makespan()
	if observed <= s.ExpectNs() {
		t.Fatalf("throttled serving (%.0f) not slower than converged expectation (%.0f)", observed, s.ExpectNs())
	}

	if !s.Reopen(observed, budget) {
		t.Fatal("drift reopen refused a converged session")
	}
	if s.Done() {
		t.Fatal("session still done after the drift reopen")
	}
	if got := s.Convergence().Config().Cores; got != budget {
		t.Fatalf("reopened instance sized to %d cores, want the observed budget %d", got, budget)
	}
	runs := 0
	for !s.Done() {
		if _, err := s.StepWith(exec.JobOptions{MaxCores: budget}); err != nil {
			t.Fatal(err)
		}
		if runs++; runs > 60 {
			t.Fatal("drift re-convergence did not halt")
		}
	}
	_, prof, err = eng.ExecuteOpts(s.Best(), exec.JobOptions{MaxCores: budget})
	if err != nil {
		t.Fatal(err)
	}
	if post := prof.Makespan(); post > observed*1.01 {
		t.Fatalf("post-drift serving %.0f worse than the throttled wide plan %.0f", post, observed)
	}

	// An unconverged session refuses serving evidence.
	s2 := NewSession(eng, selectPlan(), DefaultMutationConfig(), ConvergenceConfig{})
	if s2.Reopen(observed, budget) {
		t.Fatal("Reopen accepted an unconverged session")
	}
}

// TestReopenReasons pins, per reopen reason, what the one reopen body is
// handed and what it leaves behind — the seed plan the fresh instance
// restarts from, the bar a run must beat to dethrone the incumbent, the
// instance's Cores and ExtraRuns — to the values the three separate reopen
// bodies it replaced produced. Staleness and drift both reach it through
// Reopen, with the machine's cores (0) or the observed budget. Whatever the
// reason, the incumbent best keeps serving from its cached compilation: the
// guarded exploration-tail retire never touches a plan still serving as best.
func TestReopenReasons(t *testing.T) {
	const machineCores = 16 // testMachine: 2 sockets × 4 cores × SMT 2
	type fixture struct {
		s      *Session
		eng    *exec.Engine
		serial *plan.Plan
	}
	converged := func(t *testing.T) fixture {
		eng := exec.NewEngine(testCatalog(200_000), testMachine(), cost.Default())
		serial := selectPlan()
		s := NewSession(eng, serial, DefaultMutationConfig(), ConvergenceConfig{})
		if _, err := s.Converge(); err != nil {
			t.Fatal(err)
		}
		return fixture{s, eng, serial}
	}
	adapting := func(t *testing.T) fixture {
		eng := exec.NewEngine(testCatalog(200_000), testMachine(), cost.Default())
		serial := selectPlan()
		s := NewSession(eng, serial, DefaultMutationConfig(), ConvergenceConfig{})
		// Interrupt the adaptation where its tail is distinct from its best,
		// so the guarded tail retire has something to drop and something to
		// spare.
		for i := 0; i < 5 || s.parent == s.best || s.cur == s.best; i++ {
			if cont, err := s.Step(); err != nil || !cont {
				t.Fatalf("step %d: cont=%v err=%v", i, cont, err)
			}
		}
		// The freshly mutated current plan has not run yet; compile it so its
		// retirement is observable in the engine's counters.
		if _, _, err := eng.ExecuteOpts(s.cur, exec.JobOptions{}); err != nil {
			t.Fatal(err)
		}
		return fixture{s, eng, serial}
	}
	restored := func(t *testing.T) fixture {
		f := converged(t)
		snap, err := f.s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		s, err := RestoreSession(f.eng, snap)
		if err != nil {
			t.Fatal(err)
		}
		return fixture{s, f.eng, nil}
	}
	halfMachine := func(f fixture) {
		f.eng.Machine().InjectFault(sim.FaultEvent{Kind: sim.FaultCoreLoss, Socket: 1, Count: 8})
		if _, _, err := f.eng.ExecuteOpts(f.s.Best(), exec.JobOptions{}); err != nil {
			panic(err) // the fault lands at the start of the next run
		}
	}
	const obsNs = 9e9 // far out of band for any fixture
	stale := func(s *Session) bool { return s.Reopen(obsNs, 0) }
	for _, tc := range []struct {
		name     string
		build    func(*testing.T) fixture
		prepare  func(fixture)
		fire     func(*Session) bool
		seedBest bool // seed is the pre-reopen Best(); else the serial plan
		barNs    float64
		cores    int
	}{
		{name: "staleness", build: converged, fire: stale,
			barNs: obsNs, cores: machineCores},
		{name: "staleness/shrunken machine", build: converged, prepare: halfMachine, fire: stale,
			barNs: obsNs, cores: machineCores / 2},
		{name: "staleness/restored session", build: restored, fire: stale,
			seedBest: true, barNs: obsNs, cores: machineCores},
		{name: "data", build: converged,
			fire:     (*Session).ReopenForData,
			seedBest: true, cores: machineCores / 4},
		{name: "data/mid-adaptation", build: adapting,
			fire:     (*Session).ReopenForData,
			seedBest: true, cores: machineCores / 4},
		{name: "data/shrunken machine floors at 2", build: converged,
			prepare: func(f fixture) {
				f.eng.Machine().InjectFault(sim.FaultEvent{Kind: sim.FaultCoreLoss, Socket: 1, Count: 8})
				f.eng.Machine().InjectFault(sim.FaultEvent{Kind: sim.FaultCoreLoss, Socket: 0, Count: 4})
				if _, _, err := f.eng.ExecuteOpts(f.s.Best(), exec.JobOptions{}); err != nil {
					panic(err)
				}
			},
			fire:     (*Session).ReopenForData,
			seedBest: true, cores: 2},
		{name: "drift", build: converged,
			fire:  func(s *Session) bool { return s.Reopen(obsNs, 2) },
			barNs: obsNs, cores: 2},
		{name: "drift/unbudgeted uses the machine", build: converged,
			fire:  func(s *Session) bool { return s.Reopen(obsNs, 0) },
			barNs: obsNs, cores: machineCores},
		{name: "drift/budget above the machine clamps", build: converged, prepare: halfMachine,
			fire:  func(s *Session) bool { return s.Reopen(obsNs, 12) },
			barNs: obsNs, cores: machineCores / 2},
		{name: "drift/restored session", build: restored,
			fire:     func(s *Session) bool { return s.Reopen(obsNs, 2) },
			seedBest: true, barNs: obsNs, cores: 2},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := tc.build(t)
			s := f.s
			if tc.prepare != nil {
				tc.prepare(f)
			}
			best, runs := s.Best(), len(s.Attempts())
			wantSeed := f.serial
			if tc.seedBest {
				wantSeed = best
			}
			// The parent retired, of the exploration tail {parent, cur}, the
			// plans that were neither the seed nor (by its callers'
			// preconditions) the best; on a converged session the tail is
			// already retired and a second Retire does not count.
			wantRetired := 0
			if !s.Done() {
				for _, p := range []*plan.Plan{s.parent, s.cur} {
					if p != nil && p != wantSeed && p != s.best {
						wantRetired++
					}
				}
			}
			before := f.eng.CompileStats()

			if !tc.fire(s) {
				t.Fatal("reopen refused")
			}
			if s.Done() {
				t.Fatal("session still done after the reopen")
			}
			if s.Current() != wantSeed {
				t.Fatalf("fresh instance restarts from %p, want seed %p (best %p, serial %p)", s.Current(), wantSeed, best, f.serial)
			}
			if s.parent != nil {
				t.Fatal("reopened session kept a parent plan")
			}
			if s.reopenBar != tc.barNs {
				t.Fatalf("bar to beat = %v, want %v", s.reopenBar, tc.barNs)
			}
			if s.ExpectNs() != 0 {
				t.Fatalf("serving expectation survived the reopen: %v", s.ExpectNs())
			}
			cc := s.Convergence().Config()
			if cc.Cores != tc.cores || cc.ExtraRuns != reopenExtraRuns {
				t.Fatalf("instance sized Cores=%d ExtraRuns=%d, want %d/%d", cc.Cores, cc.ExtraRuns, tc.cores, reopenExtraRuns)
			}
			if s.Convergence().Run() != 0 || len(s.Attempts()) != runs {
				t.Fatalf("fresh instance at run %d after %d attempts, want 0 after %d", s.Convergence().Run(), len(s.Attempts()), runs)
			}
			if got := f.eng.CompileStats().Retired - before.Retired; got != int64(wantRetired) {
				t.Fatalf("reopen retired %d plans, the parent retired %d", got, wantRetired)
			}
			// The incumbent keeps serving, from its cached compilation.
			if s.Best() != best {
				t.Fatal("reopen changed the serving plan")
			}
			compiled := f.eng.CompileStats()
			if _, _, err := f.eng.ExecuteOpts(best, exec.JobOptions{}); err != nil {
				t.Fatal(err)
			}
			if after := f.eng.CompileStats(); after.Full != compiled.Full || after.Derived != compiled.Derived {
				t.Fatalf("serving the incumbent recompiled it (%+v -> %+v): the reopen retired a plan still serving as best", compiled, after)
			}
		})
	}
}

// TestStalenessDetectsCoreLossAndReconverges is the acceptance path of a
// staleness reopen: a session converges, three quarters of the machine's
// cores are lost mid-flight, the stale serving level is handed to Reopen
// with the machine's cores (what the plan cache's staleness detector does
// after three out-of-band servings), the session re-converges on the
// shrunken machine, and the re-converged steady state beats continuing on
// the stale plan.
func TestStalenessDetectsCoreLossAndReconverges(t *testing.T) {
	cat := testCatalog(400_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	s := NewSession(eng, selectPlan(), DefaultMutationConfig(), DefaultConvergenceConfig(8))
	s.VerifyResults = true
	if _, err := s.Converge(); err != nil {
		t.Fatal(err)
	}

	serveBest := func() float64 {
		_, prof, err := eng.ExecuteOpts(s.Best(), exec.JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return prof.Makespan()
	}
	preNs := serveBest()
	if math.Abs(preNs-s.ExpectNs()) > 1e-9*preNs {
		t.Fatalf("converged serving %.0f ns, expectation %.0f ns", preNs, s.ExpectNs())
	}

	// Lose all of socket 1 and half of socket 0 — 12 of 16 cores — mid-run.
	// Losing socket 1 alone leaves the bounded re-exploration a few percent
	// at best to win back, and it may re-pin the stale plan; here the
	// re-converged plan wins by ~14 %.
	eng.Machine().InjectFault(sim.FaultEvent{Kind: sim.FaultCoreLoss, Socket: 1, Count: 8})
	eng.Machine().InjectFault(sim.FaultEvent{Kind: sim.FaultCoreLoss, Socket: 0, Count: 4})
	staleNs := serveBest()
	if staleNs < preNs*1.35 {
		t.Fatalf("core loss barely moved the stale plan: %.0f vs %.0f", staleNs, preNs)
	}
	if !s.Reopen(staleNs, 0) || s.Done() {
		t.Fatal("Reopen refused a converged session")
	}

	// Re-exploration is bounded by the reopened instance sized to the 4
	// surviving cores: 4+1+6·4 = 29 runs at most.
	reqs := 0
	for !s.Done() {
		cont, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		reqs++
		if reqs > 29 {
			t.Fatalf("re-convergence did not halt within 29 runs")
		}
		if !cont {
			break
		}
	}
	postNs := serveBest()
	if postNs >= staleNs {
		t.Fatalf("re-converged plan (%.0f ns) does not beat the stale plan (%.0f ns) after core loss", postNs, staleNs)
	}
	t.Logf("pre-fault %.0f ns, stale-on-degraded %.0f ns, re-converged %.0f ns in %d runs",
		preNs, staleNs, postNs, reqs)

	// The stitched report stays coherent across the reopen.
	rep := s.Report()
	if len(rep.History) != rep.TotalRuns {
		t.Fatalf("history len %d != total runs %d", len(rep.History), rep.TotalRuns)
	}
	if rep.GMERun < 0 || rep.GMERun >= rep.TotalRuns {
		t.Fatalf("GMERun = %d of %d", rep.GMERun, rep.TotalRuns)
	}
	if rep.History[rep.GMERun] != rep.GMENs {
		t.Fatalf("GME %f != history[%d] = %f", rep.GMENs, rep.GMERun, rep.History[rep.GMERun])
	}

	// The re-converged session snapshots and restores like any converged one
	// (the persistent store is updated only on the new convergence).
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSession(eng, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Done() {
		t.Fatal("restored re-converged session not done")
	}
}

// TestStalenessRepinsWhenNothingBetterExists: when re-exploration cannot
// improve on the old best (the machine did not actually change — the
// observed level handed to Reopen is just 1 % off the expectation), the
// session re-pins the previous best plan rather than serving something worse.
func TestStalenessRepinsWhenNothingBetterExists(t *testing.T) {
	cat := testCatalog(400_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	s := NewSession(eng, selectPlan(), DefaultMutationConfig(), DefaultConvergenceConfig(8))
	if _, err := s.Converge(); err != nil {
		t.Fatal(err)
	}
	oldGME := s.Summary().GMENs
	if !s.Reopen(oldGME*1.01, 0) {
		t.Fatal("Reopen refused a converged session")
	}
	if s.Done() {
		t.Fatal("session still done after reopen")
	}
	bound := s.Convergence().UpperBoundRuns()
	for i := 0; !s.Done() && i < bound; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Done() {
		t.Fatalf("re-convergence did not halt within the reopened instance's %d-run bound", bound)
	}
	// The machine is unchanged, so the re-converged plan must serve at least
	// as well as the old best did (same plan or an equivalent rediscovery).
	_, prof, err := eng.ExecuteOpts(s.Best(), exec.JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := prof.Makespan(); got > oldGME*1.05 {
		t.Fatalf("re-pinned plan serves at %.0f ns, old best at %.0f ns", got, oldGME)
	}
}
