package core

import (
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/sim"
)

// A converging session's steps must stay cheap: retired plans feed the
// engine recycler, mutated children adopt their parents' arenas, and column
// wrappers are memoized. The >= 2x reduction vs the PR 3 baseline is enforced
// end-to-end by the server's TestServeColdAllocBudget; here we pin the
// engine-side contribution: the absolute per-step count must not creep back
// up (PR 3 sat at ~460 allocs/step for this exact loop).
func TestConvergingStepAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count measured in full runs")
	}
	cat := zerocopyCatalog(60_000)
	eng := exec.NewEngine(cat, sim.TwoSocket(), cost.Default())
	// Measure from the second session on the same engine (a serving shard's
	// recycler is warm after its first converged query).
	var allocsPerStep float64
	for s := 0; s < 2; s++ {
		sess := NewSession(eng, zerocopyPlan(), MutationConfig{}, ConvergenceConfig{})
		steps := 0
		var stats0, stats1 runtime.MemStats
		runtime.ReadMemStats(&stats0)
		for i := 0; i < 400 && !sess.Done(); i++ {
			if _, err := sess.Step(); err != nil {
				t.Fatal(err)
			}
			steps++
		}
		runtime.ReadMemStats(&stats1)
		allocsPerStep = float64(stats1.Mallocs-stats0.Mallocs) / float64(steps)
		sess.Release()
	}
	t.Logf("converging step: %.0f allocs/step", allocsPerStep)
	// Measured 92; the margin absorbs runtime jitter, not regressions.
	if allocsPerStep > 102 {
		t.Fatalf("converging step allocates %.0f/step, budget is 102 (PR 3 sat at ~460)", allocsPerStep)
	}
}
