package core

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
)

func zerocopyCatalog(n int) *storage.Catalog {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 1000)
	}
	t := storage.NewTable("t")
	t.MustAddColumn(storage.NewIntColumn("v", vals))
	cat := storage.NewCatalog()
	cat.MustAdd(t)
	return cat
}

func zerocopyPlan() *plan.Plan {
	b := plan.NewBuilder()
	col := b.Bind("t", "v")
	sel := b.Select(col, algebra.AtLeast(100))
	vals := b.Fetch(sel, col)
	sum := b.Aggr(algebra.AggrSum, vals)
	b.Result(sum)
	return b.Plan()
}

// An adaptive session run entirely over the zero-copy exchange must keep the
// mutation-correctness invariant (every run's results equal the serial
// run's) and converge; and a session forced onto the copying exchange must
// produce the same per-run results — the exchange implementation is not
// allowed to influence query answers, only cost.
func TestAdaptationEquivalentAcrossExchangeModes(t *testing.T) {
	cat := zerocopyCatalog(40_000)
	mach := sim.TwoSocket()

	shared := NewSession(exec.NewEngine(cat, mach, cost.Default()), zerocopyPlan(), MutationConfig{}, ConvergenceConfig{})
	shared.VerifyResults = true
	copying := NewSession(exec.NewEngine(cat, mach, cost.Default()), zerocopyPlan(), MutationConfig{}, ConvergenceConfig{})
	copying.VerifyResults = true

	for i := 0; i < 400 && (!shared.Done() || !copying.Done()); i++ {
		if !shared.Done() {
			if _, err := shared.Step(); err != nil {
				t.Fatalf("shared step: %v", err)
			}
		}
		if !copying.Done() {
			if _, err := copying.StepWith(exec.JobOptions{CopyExchange: true}); err != nil {
				t.Fatalf("copying step: %v", err)
			}
		}
	}
	if !shared.Done() || !copying.Done() {
		t.Fatalf("sessions did not converge (shared=%v copying=%v)", shared.Done(), copying.Done())
	}
	// VerifyResults held every run of each session to its own serial run, so
	// equal serial baselines make every attempt of both sessions answer the
	// query identically.
	sr, cr := shared.Report(), copying.Report()
	if !exec.ResultsEqual(sr.Attempts[0].Results, cr.Attempts[0].Results) {
		t.Fatal("serial baselines diverge between exchange modes")
	}
	// Note: the two searches may converge to different plans — pack cost
	// steers the greedy mutator — so best latencies are not comparable;
	// only answers are.
}

// Convergence must stay deterministic under the zero-copy exchange: two
// identical sessions produce identical traces (run-by-run latencies and the
// same best plan shape) — the arena and shared buffers never leak state
// between runs.
func TestAdaptationDeterministicWithZeroCopy(t *testing.T) {
	cat := zerocopyCatalog(40_000)
	run := func() *Report {
		s := NewSession(exec.NewEngine(cat, sim.TwoSocket(), cost.Default()), zerocopyPlan(), MutationConfig{}, ConvergenceConfig{})
		rep, err := s.Converge()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if len(a.History) != len(b.History) || a.GMERun != b.GMERun {
		t.Fatalf("traces diverge: %d runs (GME %d) vs %d runs (GME %d)",
			len(a.History), a.GMERun, len(b.History), b.GMERun)
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("run %d latency %f != %f", i, a.History[i], b.History[i])
		}
	}
	if a.BestPlan.MaxDOP() != b.BestPlan.MaxDOP() {
		t.Fatalf("best DOP %d != %d", a.BestPlan.MaxDOP(), b.BestPlan.MaxDOP())
	}
}
