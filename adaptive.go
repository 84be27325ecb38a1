package apq

import (
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/heuristic"
)

// MutationConfig tunes adaptive plan mutation (§2 of the paper).
type MutationConfig = core.MutationConfig

// ConvergenceConfig tunes the convergence algorithm (§3 of the paper).
type ConvergenceConfig = core.ConvergenceConfig

// ConvergenceReport summarizes a converged adaptation (Figure 18
// quantities: total runs, global-minimum run, global-minimum time).
type ConvergenceReport = core.Report

// Attempt is one adaptive run's record.
type Attempt = core.Attempt

// DefaultMutationConfig returns the mutation tuning (binary splits;
// exchange-union threshold 33 — see core.DefaultMutationConfig for why this
// differs from the paper's 15 MAL parameters).
func DefaultMutationConfig() MutationConfig { return core.DefaultMutationConfig() }

// DefaultConvergenceConfig mirrors the paper's calibration (ExtraRuns = 8;
// GME threshold 2%, see core.ConvergenceConfig) for a machine with the
// given core count.
func DefaultConvergenceConfig(cores int) ConvergenceConfig {
	return core.DefaultConvergenceConfig(cores)
}

// AdaptiveSession is one adaptive-parallelization instance for a cached
// query: each Step executes the current plan, profiles it, and morphs the
// most expensive operator into a parallel version, until the convergence
// algorithm halts.
type AdaptiveSession struct {
	inner *core.Session
}

// SessionOption configures an AdaptiveSession.
type SessionOption func(*sessionConfig)

type sessionConfig struct {
	mut  MutationConfig
	conv ConvergenceConfig
	// verify re-checks every run's results against the serial run.
	verify bool
}

// WithMutationConfig overrides mutation tuning.
func WithMutationConfig(m MutationConfig) SessionOption {
	return func(c *sessionConfig) { c.mut = m }
}

// WithConvergenceConfig overrides convergence tuning.
func WithConvergenceConfig(cc ConvergenceConfig) SessionOption {
	return func(c *sessionConfig) { c.conv = cc }
}

// WithResultVerification makes every adaptive run assert result equality
// with the serial plan — the mutation-correctness invariant.
func WithResultVerification() SessionOption {
	return func(c *sessionConfig) { c.verify = true }
}

// NewAdaptiveSession starts an adaptation of q on the engine. Convergence
// defaults to the machine's logical core count.
func (e *Engine) NewAdaptiveSession(q *Query, opts ...SessionOption) *AdaptiveSession {
	cfg := sessionConfig{
		mut:  DefaultMutationConfig(),
		conv: DefaultConvergenceConfig(e.Machine().LogicalCores()),
	}
	for _, o := range opts {
		o(&cfg)
	}
	s := core.NewSession(e.inner, q.p, cfg.mut, cfg.conv)
	s.VerifyResults = cfg.verify
	return &AdaptiveSession{inner: s}
}

// Step runs one adaptive invocation; it reports false once converged.
func (s *AdaptiveSession) Step() (bool, error) { return s.inner.Step() }

// Converge drives the session until the convergence algorithm halts.
func (s *AdaptiveSession) Converge() (*ConvergenceReport, error) { return s.inner.Converge() }

// Report snapshots the adaptation outcome so far.
func (s *AdaptiveSession) Report() *ConvergenceReport { return s.inner.Report() }

// Done reports whether the session has converged.
func (s *AdaptiveSession) Done() bool { return s.inner.Done() }

// Attempts returns the per-run records so far.
func (s *AdaptiveSession) Attempts() []Attempt { return s.inner.Attempts() }

// BestQuery returns the global-minimum-execution plan found so far.
func (s *AdaptiveSession) BestQuery() *Query { return &Query{p: s.inner.Report().BestPlan} }

// HeuristicPlan statically parallelizes q with the MonetDB-style heuristic
// (partitions = the machine's logical cores when k is 0).
func (e *Engine) HeuristicPlan(q *Query, k int) (*Query, error) {
	if k == 0 {
		k = e.Machine().LogicalCores()
	}
	p, err := heuristic.Parallelize(q.p, e.inner.Catalog(), heuristic.Config{Partitions: k})
	if err != nil {
		return nil, err
	}
	return &Query{p: p}, nil
}

// VectorwiseAdmissionMaxCores exposes the comparator's admission-control
// policy (§4.2.4).
func VectorwiseAdmissionMaxCores(clientIndex, activeClients, cores int) int {
	return exec.AdmissionMaxCores(clientIndex, activeClients, cores)
}

// MaxDOP reports the query plan's degree of parallelism.
func (q *Query) MaxDOP() int { return q.p.MaxDOP() }
