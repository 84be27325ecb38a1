package apq

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/heuristic"
	"repro/internal/plan"
	"repro/internal/plancache"
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

// Current returns the plan the next Step would execute.
func (s *AdaptiveSession) Current() *Query { return &Query{p: s.inner.Current()} }

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

// WorkStealingPlan statically over-partitions q (the paper's 128 partitions
// on 8 threads when partitions is 0) for work-stealing-style execution, Figure
// 12's second configuration: threads that finish early pick up the remaining
// small partitions while threads on skewed ones stay busy [5]. On the
// discrete-event machine the dataflow scheduler's greedy dispatch of ready
// partition tasks onto idle cores is list scheduling, which is what a
// work-stealing runtime converges to for independent equal-priority tasks, so
// the comparison is about partition granularity versus skew, not steal-queue
// mechanics (docs/ARCHITECTURE.md §scale) — the plan is the heuristic's, only
// finer.
func (e *Engine) WorkStealingPlan(q *Query, partitions int) (*Query, error) {
	if partitions <= 0 {
		partitions = 128
	}
	p, err := heuristic.Parallelize(q.p, e.inner.Catalog(), heuristic.Config{Partitions: partitions})
	if err != nil {
		return nil, err
	}
	return &Query{p: p}, nil
}

// VectorwisePlan builds the static exchange plan of the simulated comparator
// of §4.2.4 (Vectorwise 3.5.1, a pipelined vectorized column store with
// cost-model-based exchange-operator plans): the heuristic plan at the
// machine's logical core count. What makes it the comparator is how it is
// run — ExecuteVectorwise's cost calibration (cost.Vectorwise: higher
// dispatch and a per-tuple exchange cost on packs, which §4.1.2 cites [30]
// for) and, under concurrency, the admission-control core budgets.
func (e *Engine) VectorwisePlan(q *Query) (*Query, error) {
	p, err := heuristic.Parallelize(q.p, e.inner.Catalog(), heuristic.Config{Partitions: e.Machine().LogicalCores()})
	if err != nil {
		return nil, err
	}
	return &Query{p: p}, nil
}

// ExecuteVectorwise runs q under the Vectorwise cost calibration with an
// optional core budget (0 = unlimited) from the admission-control scheme.
func (e *Engine) ExecuteVectorwise(q *Query, maxCores int) (*Result, error) {
	params := cost.Vectorwise()
	job, err := e.inner.Submit(q.p, execJobOptions(maxCores, &params))
	if err != nil {
		return nil, err
	}
	e.inner.Machine().RunUntil(func() bool { return job.Done })
	if job.Err != nil {
		return nil, job.Err
	}
	return &Result{Values: job.Results(), Profile: job.Profile}, nil
}

// VectorwiseAdmissionMaxCores exposes the comparator's admission-control
// policy (§4.2.4).
func VectorwiseAdmissionMaxCores(clientIndex, activeClients, cores int) int {
	return exec.AdmissionMaxCores(clientIndex, activeClients, cores)
}

// AdaptiveCache is the plan-administration component of the paper's §2
// workflow: it keeps one adaptation per query-template key, advances it on
// every invocation (adaptation happens on the production query stream), and
// serves the converged global-minimum plan afterwards. It is the library
// face of the same plan-session cache the apqd daemon serves from.
type AdaptiveCache struct {
	inner *plancache.Cache
}

// NewAdaptiveCache creates a cache on the engine with default tuning.
func (e *Engine) NewAdaptiveCache() *AdaptiveCache {
	return &AdaptiveCache{inner: plancache.New(e.inner, plancache.Config{
		Mutation:    DefaultMutationConfig(),
		Convergence: DefaultConvergenceConfig(e.Machine().LogicalCores()),
	})}
}

// Execute serves one invocation of the template identified by key; builder
// is called once, on the first invocation. The boolean reports whether the
// template has converged.
//
// Execute drives the engine's single-threaded virtual-time machine; callers
// must not invoke it from multiple goroutines (the apqd server serializes
// it behind a run-loop).
func (c *AdaptiveCache) Execute(key string, builder func() *Query) (*Result, bool, error) {
	r, err := c.inner.Invoke(key, key,
		func() (*plan.Plan, error) { return builder().p, nil }, exec.JobOptions{})
	if err != nil {
		return nil, false, err
	}
	return &Result{Values: r.Values, Profile: r.Profile}, r.Invocation.Converged, nil
}

// Report returns the adaptation report for key (nil when unknown).
func (c *AdaptiveCache) Report(key string) *ConvergenceReport {
	e := c.inner.GetFingerprint(key)
	if e == nil {
		return nil
	}
	return e.Session.Report()
}

// Converged reports whether key's adaptation has finished.
func (c *AdaptiveCache) Converged(key string) bool {
	e := c.inner.GetFingerprint(key)
	return e != nil && e.Session.Done()
}

// Evict drops key's adaptation state.
func (c *AdaptiveCache) Evict(key string) { c.inner.Evict(key) }

// Serial returns a deep copy of q — useful as an immutable baseline in
// custom experiments (adaptive sessions never modify their input plan, but
// a private copy makes that explicit).
func Serial(q *Query) *Query { return &Query{p: q.p.Clone()} }

// MaxDOP reports the query plan's degree of parallelism.
func (q *Query) MaxDOP() int { return q.p.MaxDOP() }

func execJobOptions(maxCores int, params *cost.Params) exec.JobOptions {
	return exec.JobOptions{MaxCores: maxCores, CostParams: params}
}
