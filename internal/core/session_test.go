package core

import (
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
)

func TestSessionConvergesAndSpeedsUp(t *testing.T) {
	cat := testCatalog(400_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	s := NewSession(eng, selectPlan(), DefaultMutationConfig(),
		DefaultConvergenceConfig(8))
	s.VerifyResults = true

	rep, err := s.Converge()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalRuns < 9 { // cores+1 lower bound
		t.Fatalf("TotalRuns = %d", rep.TotalRuns)
	}
	if rep.Speedup() < 2 {
		t.Fatalf("speedup = %.2f, want meaningful parallel gain", rep.Speedup())
	}
	if rep.GMERun <= 0 || rep.GMERun >= rep.TotalRuns {
		t.Fatalf("GMERun = %d of %d", rep.GMERun, rep.TotalRuns)
	}
	if rep.BestPlan.MaxDOP() < 2 {
		t.Fatalf("best plan DOP = %d", rep.BestPlan.MaxDOP())
	}
	if len(rep.History) != rep.TotalRuns {
		t.Fatalf("history len %d != runs %d", len(rep.History), rep.TotalRuns)
	}
	// The GME time matches the history entry at the GME run.
	if rep.History[rep.GMERun] != rep.GMENs {
		t.Fatalf("GME %f != history[%d] = %f", rep.GMENs, rep.GMERun, rep.History[rep.GMERun])
	}
}

func TestSessionEachRunAddsAtMostOneOperatorSplit(t *testing.T) {
	// §2: "plan parallelization introduces only a single new operator per
	// invocation" — DOP grows by at most one per run for basic mutations.
	cat := testCatalog(200_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	s := NewSession(eng, selectPlan(), DefaultMutationConfig(),
		DefaultConvergenceConfig(4))
	prevDOP := 1
	for i := 0; i < 10; i++ {
		cont, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		dop := s.Current().MaxDOP()
		if dop > prevDOP+1 {
			t.Fatalf("run %d: DOP jumped %d → %d", i, prevDOP, dop)
		}
		prevDOP = dop
		if !cont {
			break
		}
	}
}

func TestSessionTinyInputStaysSerial(t *testing.T) {
	// With input below MinPartTuples no mutation applies; convergence
	// drains quickly and the plan stays serial.
	cat := testCatalog(1_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	s := NewSession(eng, selectPlan(), DefaultMutationConfig(),
		DefaultConvergenceConfig(4))
	rep, err := s.Converge()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestPlan.MaxDOP() != 1 {
		t.Fatalf("tiny input was parallelized to DOP %d", rep.BestPlan.MaxDOP())
	}
}

func TestSessionGroupByQueryConverges(t *testing.T) {
	cat := testCatalog(300_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	s := NewSession(eng, groupPlan(), DefaultMutationConfig(),
		DefaultConvergenceConfig(8))
	s.VerifyResults = true
	rep, err := s.Converge()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Speedup() < 1.5 {
		t.Fatalf("groupby speedup = %.2f", rep.Speedup())
	}
	if rep.BestPlan.CountOps(plan.OpGroupMerge) == 0 {
		t.Fatal("best plan has no group merge; advanced mutation never fired")
	}
}

func TestSessionJoinQueryConverges(t *testing.T) {
	cat := testCatalog(300_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	s := NewSession(eng, joinPlan(), DefaultMutationConfig(),
		DefaultConvergenceConfig(8))
	s.VerifyResults = true
	rep, err := s.Converge()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Speedup() < 1.5 {
		t.Fatalf("join speedup = %.2f", rep.Speedup())
	}
	if rep.BestPlan.CountOps(plan.OpJoin) < 2 {
		t.Fatal("join never parallelized")
	}
}

func TestSessionDOPBoundedByUsefulParallelism(t *testing.T) {
	// The converged DOP should be in the vicinity of the core count, not
	// exploded into hundreds of partitions (the AP-vs-HP contrast of
	// Table 5).
	cat := testCatalog(400_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	s := NewSession(eng, selectPlan(), DefaultMutationConfig(),
		DefaultConvergenceConfig(8))
	rep, err := s.Converge()
	if err != nil {
		t.Fatal(err)
	}
	cores := eng.Machine().Config().LogicalCores()
	if dop := rep.BestPlan.MaxDOP(); dop > 2*cores {
		t.Fatalf("best DOP %d explodes past 2x cores (%d)", dop, cores)
	}
}

func TestReportBeforeAnyGME(t *testing.T) {
	cat := testCatalog(1_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	s := NewSession(eng, selectPlan(), DefaultMutationConfig(), DefaultConvergenceConfig(2))
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if rep.TotalRuns != 1 || rep.GMERun != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Speedup() != 1 {
		t.Fatalf("speedup before adaptation = %f", rep.Speedup())
	}
}

// oneCoreMachine is testMachine with a single core: no parallel plan can
// beat the serial one.
func oneCoreMachine() sim.Config {
	m := testMachine()
	m.Sockets, m.PhysCoresPerSocket, m.SMT = 1, 1, 1
	return m
}

// checkBestDescribesItsRun asserts Best(), Summary() and Report() describe
// one (plan, run): the served plan is the report's, it serves at the time
// Summary reports (up to the virtual clock's rounding: a run's makespan is a
// difference of clock readings), and that time is the report's GME run.
func checkBestDescribesItsRun(t *testing.T, s *Session, eng *exec.Engine, opts exec.JobOptions) {
	t.Helper()
	_, prof, err := eng.ExecuteOpts(s.Best(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sm, rep := s.Summary(), s.Report()
	if rep.BestPlan != s.Best() {
		t.Fatalf("Report().BestPlan is DOP %d, Best() serves DOP %d", rep.BestPlan.MaxDOP(), s.Best().MaxDOP())
	}
	if got := prof.Makespan(); math.Abs(got-sm.GMENs) > 1e-9*sm.GMENs {
		t.Fatalf("Best() (DOP %d) serves at %v ns, Summary() reports %v ns", s.Best().MaxDOP(), got, sm.GMENs)
	}
	if rep.GMENs != sm.GMENs || rep.History[rep.GMERun] != sm.GMENs || s.ExpectNs() != sm.GMENs {
		t.Fatalf("Report GME %.0f ns at run %d (history %.0f), expectation %.0f, Summary %.0f",
			rep.GMENs, rep.GMERun, rep.History[rep.GMERun], s.ExpectNs(), sm.GMENs)
	}
}

// TestBestIsSerialWhenNothingBeatsIt: on a machine where no run beats the
// serial plan, the session serves the serial plan — not the last plan it
// explored — and reports it.
func TestBestIsSerialWhenNothingBeatsIt(t *testing.T) {
	eng := exec.NewEngine(testCatalog(5_000), oneCoreMachine(), cost.Default())
	serial := selectPlan()
	s := NewSession(eng, serial, DefaultMutationConfig(), ConvergenceConfig{})
	if _, err := s.Converge(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Convergence().GME(); ok {
		t.Fatal("a run beat the serial plan on one core; the fixture proves nothing")
	}
	if s.Best() != serial {
		t.Fatalf("serves a DOP-%d plan, want the serial plan", s.Best().MaxDOP())
	}
	checkBestDescribesItsRun(t, s, eng, exec.JobOptions{})
}

// TestBestDescribesItsRunAcrossDataReopens: a converged session churned by
// alternating appends and tail deletes re-converges warm each epoch; when an
// epoch's instance finds no GME the learned plan keeps serving, and
// Summary() and Report() describe that plan and its re-baseline run on the
// new data, not the first epoch's serial run or the retired tail plan.
func TestBestDescribesItsRunAcrossDataReopens(t *testing.T) {
	cat := testCatalog(400_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	s := NewSession(eng, selectPlan(), DefaultMutationConfig(), ConvergenceConfig{})
	if _, err := s.Converge(); err != nil {
		t.Fatal(err)
	}
	checkBestDescribesItsRun(t, s, eng, exec.JobOptions{})
	noGME := 0
	for epoch := 1; epoch <= 6; epoch++ {
		var err error
		if epoch%2 == 1 {
			cat = appendTestRows(t, cat, 600)
		} else if cat, err = cat.DeleteTail("lineitem", 600); err != nil {
			t.Fatal(err)
		}
		if !s.ReopenForData() {
			t.Fatal("ReopenForData refused a converged session")
		}
		opts := exec.JobOptions{Catalog: cat}
		for n := 0; !s.Done(); n++ {
			if n == 60 {
				t.Fatalf("epoch %d: warm re-convergence did not halt within 60 runs", epoch)
			}
			if _, err := s.StepWith(opts); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, ok := s.Convergence().GME(); !ok {
			noGME++
		}
		checkBestDescribesItsRun(t, s, eng, opts)
	}
	if noGME == 0 {
		t.Fatal("every epoch's instance found a GME; the fixture proves nothing")
	}
}
