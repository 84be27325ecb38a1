//go:build sweep

package core_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpcds"
	"repro/internal/tpch"
)

// TestConvergenceSweep is the wide form of the tpch / tpcds
// TestFullConvergencePreservesResults: every plan of every full convergence
// over scale factors × data seeds × machines returns the serial result
// (243 TPC-H and 45 TPC-DS convergences; the asymmetric and noisy machines at
// one point) and, replayed on a twin engine that
// adopts nothing (so takes no parent run's value or Work either), is measured
// exactly as the session measured it, and run
// once more reports every instruction's Work unchanged, and every step that
// reused its previous search decides exactly what a fresh search on a twin
// Mutator decides (TestAdoptionIsInvisible's checks, through the same
// helper; the sweep fails when no step reused one); its best plan,
// served twice more on its own engine, replays the second time (never, on the
// noisy machine, which is never Quiescent) and still returns the serial
// result at the event core's makespan. Which mutation fires when
// depends on all three, so the tier-1 tests' single point cannot stand in
// for it; CI runs it as its own step (go test -tags sweep).
func TestConvergenceSweep(t *testing.T) {
	machines := []sim.Config{sim.TwoSocket(), sim.FourSocket(), {
		Name: "test", Sockets: 2, PhysCoresPerSocket: 4, SMT: 2, SpeedFactor: 1,
		L3PerSocket: 64 << 10, BWPerSocket: 1e9, SMTFactor: 0.55, NUMAFactor: 1.2,
	}}
	// The other machines apqd -machine / -noise serves on, at one point. A
	// static socket-speed gradient keeps a machine Quiescent, so the
	// asymmetric ones replay; a noisy one never is, and never replays.
	noisy := sim.TwoSocket()
	noisy.Name, noisy.Noise, noisy.Seed = "2-socket with noise", sim.DefaultNoise(), 42
	served := []sim.Config{sim.TwoSocketAsym(), sim.FourSocketAsym(), noisy}
	runs, diverged := 0, 0
	var adopted exec.CompileStats
	var searches core.SearchStats
	sweep := func(name string, cat *storage.Catalog, numbers []int, query func(int) *plan.Plan, machines []sim.Config) {
		for _, m := range machines {
			for _, n := range numbers {
				eng := exec.NewEngine(cat, m, cost.Default())
				s := core.NewSession(eng, query(n), core.DefaultMutationConfig(), core.ConvergenceConfig{})
				s.VerifyResults = true
				runs++
				err := convergeTwinned(s, exec.NewEngine(cat, m, cost.Default()))
				if err == nil {
					err = serveConvergedTwice(s, eng, !m.Noise.Enabled)
				}
				searches.Add(s.SearchStats())
				st := eng.CompileStats()
				adopted.Derived += st.Derived
				adopted.ReusedInstrs += st.ReusedInstrs
				if err != nil {
					diverged++
					t.Errorf("%s q%d on %s: %v", name, n, m.Name, err)
				}
			}
		}
	}
	for _, sf := range []float64{0.2, 0.5, 1, 2} {
		for _, seed := range []int64{11, 42} {
			cat := tpch.Generate(tpch.Config{SF: sf, Seed: seed})
			name := fmt.Sprintf("tpch sf=%g seed=%d", sf, seed)
			sweep(name, cat, tpch.QueryNumbers(), tpch.MustQuery, machines)
			if sf == 0.5 && seed == 42 {
				sweep(name, cat, tpch.QueryNumbers(), tpch.MustQuery, served)
			}
		}
	}
	for _, sf := range []float64{0.5, 1} {
		cat := tpcds.Generate(tpcds.Config{SF: sf, Seed: 42})
		name := fmt.Sprintf("tpcds sf=%g seed=42", sf)
		sweep(name, cat, tpcds.QueryNumbers(), tpcds.MustQuery, machines)
		if sf == 0.5 {
			sweep(name, cat, tpcds.QueryNumbers(), tpcds.MustQuery, served)
		}
	}
	t.Logf("%d convergences, %d diverging; %d adopted arenas reused %d instructions; %d searches, %d steps reused one",
		runs, diverged, adopted.Derived, adopted.ReusedInstrs, searches.Runs, searches.Reused)
	if err := adoptionRan(adopted); err != nil {
		t.Fatal(err)
	}
	if searches.Reused == 0 {
		t.Fatal("no step reused a search: the fixed-point path never ran")
	}
}

// serveConvergedTwice serves s's best plan twice more on eng, the engine it
// converged on. Both servings return the serial result. On a machine that
// replays, the second serving replays, at the makespan of the event-core run
// it repeats — the first serving's when that one took the event core, else
// the best attempt's own; on one that does not (replays false), neither
// serving replays.
func serveConvergedTwice(s *core.Session, eng *exec.Engine, replays bool) error {
	best, want := s.Best(), 0.0
	for _, a := range s.Attempts() {
		if a.Plan == best {
			want = a.ExecNs
		}
	}
	for serving := 0; serving < 2; serving++ {
		before := eng.RunStats()
		res, prof, err := eng.Execute(best)
		if err != nil {
			return fmt.Errorf("converged serving %d: %w", serving, err)
		}
		if !exec.ResultsEqual(res, s.Attempts()[0].Results) {
			return fmt.Errorf("converged serving %d: results diverge from the serial plan's", serving)
		}
		replayed := eng.RunStats().Replayed > before.Replayed
		switch {
		case !replays && replayed:
			return fmt.Errorf("converged serving %d replayed on a machine that is never quiescent", serving)
		case !replays:
		case serving == 1 && !replayed:
			return fmt.Errorf("the best plan's second serving took the event core")
		case !replayed:
			want = prof.Makespan()
		case math.Abs(prof.Makespan()-want) > 1e-12*want:
			return fmt.Errorf("converged serving %d replayed %v, the event core measured %v", serving, prof.Makespan(), want)
		}
	}
	return nil
}
