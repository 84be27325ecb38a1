package core

import (
	"math"
	"testing"
)

// drive feeds a synthetic execution-time curve and returns the number of
// runs the algorithm allowed.
func drive(c *Convergence, times []float64) int {
	for i, t := range times {
		if !c.Observe(t) {
			return i + 1
		}
	}
	return len(times)
}

// improving generates a serial time followed by a hyperbolic improvement
// curve flattening at floor — the typical adaptation profile (Figure 11).
func improving(serial, floor float64, n int) []float64 {
	out := make([]float64, n)
	out[0] = serial
	for i := 1; i < n; i++ {
		out[i] = floor + (serial-floor)/float64(i)
	}
	return out
}

func TestConvergenceTerminatesOnStableCurve(t *testing.T) {
	cfg := DefaultConvergenceConfig(8)
	c := NewConvergence(cfg)
	times := improving(1000, 100, 500)
	runs := drive(c, times)
	if runs >= 500 {
		t.Fatal("never converged on a stable improving curve")
	}
	// The paper's bound is approximate: continued improvement adds credit
	// beyond the first upper bound (§3.3.4), so allow a 2x slack.
	if runs > 2*c.UpperBoundRuns() {
		t.Fatalf("runs = %d far beyond upper bound %d", runs, c.UpperBoundRuns())
	}
	// Lower bound: at least Cores+1 runs (§3.3.4) so the search cannot
	// terminate before the threshold run.
	if runs < cfg.Cores+1 {
		t.Fatalf("runs = %d below the cores+1 lower bound", runs)
	}
	gme, gmeRun, ok := c.GME()
	if !ok {
		t.Fatal("no GME found")
	}
	if gme > 150 {
		t.Fatalf("GME = %f, want near the floor 100", gme)
	}
	if gmeRun <= 0 || gmeRun >= runs {
		t.Fatalf("GME run = %d out of [1,%d)", gmeRun, runs)
	}
}

func TestNoPrematureConvergenceThroughPlateau(t *testing.T) {
	// §3.3.1: a plateau and an up-hill right after the first improvements
	// must not halt the search — the first run's credit carries it.
	c := NewConvergence(DefaultConvergenceConfig(8))
	times := []float64{1000, 400, 400, 400, 410, 405, 400, 380, 200, 150, 120}
	times = append(times, improving(1000, 110, 60)[10:]...)
	runs := drive(c, times)
	if runs < 9 {
		t.Fatalf("converged after %d runs, before reaching the global minimum region", runs)
	}
	gme, _, _ := c.GME()
	if gme > 160 {
		t.Fatalf("GME %f missed the late minimum", gme)
	}
}

func TestNoExtendedConvergenceViaLeakingDebit(t *testing.T) {
	// §3.3.2: on a perfectly stable system (no variation at all after the
	// early gains) the credit would never drain without the leaking debit.
	cfg := DefaultConvergenceConfig(8)
	c := NewConvergence(cfg)
	times := make([]float64, 2000)
	times[0] = 1000
	for i := 1; i < len(times); i++ {
		if i < 8 {
			times[i] = 1000 / float64(i+1)
		} else {
			times[i] = 125 // perfectly flat: ROI exactly 0 forever
		}
	}
	runs := drive(c, times)
	if runs >= 2000 {
		t.Fatal("leaking debit failed: no convergence on a flat curve")
	}
	if runs > c.UpperBoundRuns() {
		t.Fatalf("runs = %d beyond upper bound %d", runs, c.UpperBoundRuns())
	}
}

func TestNoisyPeaksForgiven(t *testing.T) {
	// §3.3.3: a spike above the serial time must not halt the algorithm;
	// the peak and its descent cancel.
	cfg := DefaultConvergenceConfig(8)
	base := improving(1000, 100, 40)
	spiked := append([]float64(nil), base...)
	spiked[20] = 2500 // interference peak above serial
	cClean := NewConvergence(cfg)
	cSpiked := NewConvergence(cfg)
	cleanRuns := drive(cClean, base)
	spikedRuns := drive(cSpiked, spiked)
	if spikedRuns < 22 {
		t.Fatalf("spike halted the algorithm at run %d", spikedRuns)
	}
	if len(cSpiked.Outliers()) != 1 || cSpiked.Outliers()[0] != 20 {
		t.Fatalf("outliers = %v, want [20]", cSpiked.Outliers())
	}
	// The forgiven pair keeps the budget close to the clean trajectory.
	if diff := spikedRuns - cleanRuns; diff < -3 || diff > 3 {
		t.Fatalf("spike shifted convergence by %d runs (clean %d, spiked %d)", diff, cleanRuns, spikedRuns)
	}
	// The spike must not become the GME or corrupt it.
	gme, _, _ := cSpiked.GME()
	if gme > 160 {
		t.Fatalf("GME = %f corrupted by spike", gme)
	}
}

func TestGMEThresholdDiscardsMarginalImprovements(t *testing.T) {
	// A run only replaces the GME when it improves by more than the
	// threshold relative to serial (§3.1's 5%).
	c := NewConvergence(ConvergenceConfig{Cores: 4, ExtraRuns: 8, GMEThreshold: 0.05})
	c.Observe(1000) // serial
	c.Observe(500)  // GME = 500 (first run after serial)
	c.Observe(490)  // only 1% better than GME relative to serial: discarded
	gme, run, _ := c.GME()
	if gme != 500 || run != 1 {
		t.Fatalf("GME = (%f, %d), want (500, 1)", gme, run)
	}
	c.Observe(420) // 8% better relative to serial: accepted
	gme, run, _ = c.GME()
	if gme != 420 || run != 3 {
		t.Fatalf("GME = (%f, %d), want (420, 3)", gme, run)
	}
}

func TestGMENeverIncreases(t *testing.T) {
	c := NewConvergence(DefaultConvergenceConfig(4))
	times := []float64{1000, 300, 200, 600, 900, 250}
	for _, x := range times {
		c.Observe(x)
	}
	gme, _, ok := c.GME()
	if !ok || gme != 200 {
		t.Fatalf("GME = %f, want 200", gme)
	}
}

func TestWorseningParallelismConvergesQuickly(t *testing.T) {
	// When parallelism only hurts (tiny inputs), debits accumulate
	// immediately and the search stops fast.
	c := NewConvergence(DefaultConvergenceConfig(8))
	times := []float64{100, 120, 150, 180, 220, 260, 310, 370, 440, 520}
	runs := drive(c, times)
	if runs > 9 {
		t.Fatalf("runs = %d, want quick abandonment", runs)
	}
	if _, _, ok := c.GME(); ok {
		t.Fatal("a GME was claimed although no run beat serial")
	}
}

func TestHistoryAndBalanceAccessors(t *testing.T) {
	c := NewConvergence(DefaultConvergenceConfig(4))
	c.Observe(100)
	c.Observe(50)
	h := c.History()
	if len(h) != 2 || h[0] != 100 || h[1] != 50 {
		t.Fatalf("history = %v", h)
	}
	if c.Run() != 2 {
		t.Fatalf("Run = %d", c.Run())
	}
	if c.Balance() <= 0 {
		t.Fatalf("balance = %f after a strong improvement", c.Balance())
	}
	if math.IsInf(c.Balance(), 0) {
		t.Fatal("balance overflow")
	}
}

// TestConvergenceFillsDefaults: a partial config takes each missing field
// from DefaultConvergenceConfig, so setting only Cores is the default for
// that many cores.
func TestConvergenceFillsDefaults(t *testing.T) {
	for _, cores := range []int{1, 16} {
		if got, want := NewConvergence(ConvergenceConfig{Cores: cores}).Config(), DefaultConvergenceConfig(cores); got != want {
			t.Errorf("NewConvergence({Cores: %d}).Config() = %+v, want %+v", cores, got, want)
		}
	}
	if got, want := NewConvergence(ConvergenceConfig{}).Config(), DefaultConvergenceConfig(1); got != want {
		t.Errorf("NewConvergence({}).Config() = %+v, want %+v", got, want)
	}
}

func TestConvergenceDefaultsSanitized(t *testing.T) {
	c := NewConvergence(ConvergenceConfig{})
	if !c.Observe(100) {
		t.Fatal("zero-config convergence rejected the serial run")
	}
	if c.UpperBoundRuns() < 2 {
		t.Fatalf("UpperBoundRuns = %d", c.UpperBoundRuns())
	}
}
