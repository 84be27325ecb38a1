package core

import "math"

// ConvergenceConfig parameterizes the convergence algorithm of §3.
type ConvergenceConfig struct {
	// Cores is Number_Of_Cores: scales credit/debit, sets the leaking-debit
	// threshold run, and the lower bound of cores+1 convergence runs.
	Cores int
	// ExtraRuns bounds the post-threshold search: Remaining_Runs =
	// ExtraRuns × Cores (eight on the paper's platform, §3.3.2).
	ExtraRuns int
	// GMEThreshold is the improvement margin a run must beat the current
	// global minimum by to replace it (2%; the paper uses 5% in its §3.1 example — at our 1/100 scale late gains are finer-grained).
	GMEThreshold float64
}

// DefaultConvergenceConfig mirrors the paper's calibration for a machine
// with the given core count.
func DefaultConvergenceConfig(cores int) ConvergenceConfig {
	return ConvergenceConfig{Cores: cores, ExtraRuns: 8, GMEThreshold: 0.02}
}

// Convergence is the credit/debit state machine of §3.2. Feed it one
// execution time per adaptive run via Observe; it reports whether another
// run is allowed. Formulas, verbatim from the paper:
//
//	CurExecImprv = |SerialExec − CurExec| / SerialExec
//	GME := CurExec                  if CurExecImprv − GMEimprv > threshold
//	ROI  = (PrevExec − CurExec) / max(CurExec, PrevExec)
//	Credit += ROI·Cores (ROI > 0);  Debit += |ROI|·Cores (ROI < 0)
//	continue while Credit − Debit > 0
//
// plus the leaking debit after the threshold run (§3.3.2) and outlier-peak
// forgiveness in noisy environments (§3.3.3).
type Convergence struct {
	cfg ConvergenceConfig

	run        int
	serialExec float64
	prevExec   float64

	credit, debit float64
	leakingDebit  float64
	leaking       bool

	gme     float64
	gmeImpr float64
	gmeRun  int

	// skipNext marks that the previous run was an outlier peak: the debit
	// of the ascent and the credit of the descent cancel, so both runs are
	// excluded from the budget (§3.3.3).
	skipNext bool

	history  []float64
	outliers []int
}

// NewConvergence returns the state machine; the first Observe call must
// carry the serial (0th run) execution time. Cores defaults to 1, and any
// other field left zero takes its DefaultConvergenceConfig value.
func NewConvergence(cfg ConvergenceConfig) *Convergence {
	def := DefaultConvergenceConfig(max(cfg.Cores, 1))
	cfg.Cores = def.Cores
	if cfg.ExtraRuns <= 0 {
		cfg.ExtraRuns = def.ExtraRuns
	}
	if cfg.GMEThreshold <= 0 {
		cfg.GMEThreshold = def.GMEThreshold
	}
	return &Convergence{cfg: cfg, credit: 1, gme: math.Inf(1), gmeRun: -1}
}

// Run returns the number of runs observed so far (the serial run is run 0).
func (c *Convergence) Run() int { return c.run }

// Config returns the configuration the state machine runs with, after
// NewConvergence defaulting — the values a snapshot must persist so a replay
// reproduces this machine exactly.
func (c *Convergence) Config() ConvergenceConfig { return c.cfg }

// GME returns the global-minimum execution time observed, the run at which
// it occurred, and whether one exists yet.
func (c *Convergence) GME() (ns float64, run int, ok bool) {
	return c.gme, c.gmeRun, c.gmeRun >= 0
}

// History returns the observed execution times, index = run number.
func (c *Convergence) History() []float64 {
	return append([]float64(nil), c.history...)
}

// Outliers returns the runs flagged as noise peaks.
func (c *Convergence) Outliers() []int {
	return append([]int(nil), c.outliers...)
}

// Balance returns the current credit − debit.
func (c *Convergence) Balance() float64 { return c.credit - c.debit }

// Observe records the execution time of the current run and reports whether
// the adaptation should continue with another run.
func (c *Convergence) Observe(execNs float64) bool {
	c.history = append(c.history, execNs)
	defer func() { c.run++ }()

	if c.run == 0 {
		// Serial baseline: GME starts at the first run *after* serial
		// (§3.1), so only record the reference here.
		c.serialExec = execNs
		c.prevExec = execNs
		return true
	}

	// Global minimum tracking.
	curImpr := math.Abs(c.serialExec-execNs) / c.serialExec
	if c.gmeRun < 0 {
		if execNs < c.serialExec {
			c.gme, c.gmeImpr, c.gmeRun = execNs, curImpr, c.run
		}
	} else if execNs < c.gme && curImpr-c.gmeImpr > c.cfg.GMEThreshold {
		c.gme, c.gmeImpr, c.gmeRun = execNs, curImpr, c.run
	}

	// Outlier peaks: executions above the serial baseline in a converging
	// instance are marked as interference and forgiven — the next run's
	// descent credit is cancelled against this ascent's debit (§3.3.3).
	// This covers the first parallel run too: a spiked run 1 must not
	// drain the starting credit before adaptation has seen anything. A
	// peak requires a normal (at-or-below-serial) predecessor — "most peak
	// executions are followed and preceded by a normal execution" — so a
	// genuinely worsening trajectory still accumulates debits.
	isPeak := c.run >= 1 && execNs > c.serialExec && c.prevExec <= c.serialExec
	roi := (c.prevExec - execNs) / math.Max(execNs, c.prevExec)
	switch {
	case isPeak:
		c.outliers = append(c.outliers, c.run)
		c.skipNext = true
	case c.skipNext:
		c.skipNext = false // descent: cancels the forgiven ascent
	default:
		if roi > 0 {
			c.credit += roi * float64(c.cfg.Cores)
		} else {
			c.debit += -roi * float64(c.cfg.Cores)
		}
	}
	c.prevExec = execNs

	// Leaking debit after the threshold run (§3.3.2): the available credit
	// is spread over the remaining-run budget so the balance provably
	// drains. The leak is re-derived from the *current* credit and the
	// *shrinking* remaining budget each run — the paper notes its
	// Remaining_Runs "is just an approximate bound"; recomputing makes the
	// upper bound hard even when continued improvements keep adding credit.
	if c.run >= c.cfg.Cores {
		c.leaking = true
		used := float64(c.run - c.cfg.Cores)
		remaining := float64(c.cfg.ExtraRuns*c.cfg.Cores) - used
		if remaining < 1 {
			return false
		}
		leak := c.credit / remaining
		if leak > c.leakingDebit {
			c.leakingDebit = leak
		}
		if c.leakingDebit <= 0 {
			c.leakingDebit = 1.0 / remaining
		}
		c.debit += c.leakingDebit
	}

	return c.credit-c.debit > 0
}

// UpperBoundRuns returns the approximate upper bound on convergence runs
// (§3.3.4): cores+1 plus the post-threshold budget.
func (c *Convergence) UpperBoundRuns() int {
	return c.cfg.Cores + 1 + c.cfg.ExtraRuns*c.cfg.Cores
}
