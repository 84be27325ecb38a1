// Package apq is an adaptive query parallelization engine for multi-core
// column stores — a from-scratch Go reproduction of Gawade & Kersten,
// "Adaptive query parallelization in multi-core column stores" (EDBT 2016).
//
// The library bundles a complete columnar execution stack: typed columnar
// storage with zero-copy range views, relational operators (select, hash
// join, tuple reconstruction, grouping, aggregation, sort, exchange union),
// MAL-like SSA dataflow plans, a deterministic discrete-event multi-core
// machine (sockets, SMT, shared memory bandwidth, NUMA, OS noise), dbgen-like
// TPC-H and skewed TPC-DS workload generators, and two parallelization
// engines:
//
//   - Adaptive parallelization (the paper's contribution): execution
//     feedback morphs a serial plan by parallelizing its most expensive
//     operator per invocation, under a credit/debit convergence algorithm.
//   - Heuristic parallelization (MonetDB-style static mitosis baseline).
//
// The paper's other two configurations — 128-partition work stealing
// (Figure 12) and the simulated Vectorwise comparator (Figure 16) — are the
// heuristic plan at another partition count or cost calibration, built where
// those figures are regenerated: go run ./cmd/experiments. NewServer and
// Serve put the adaptive engine behind the apqd HTTP query service.
//
// Quickstart:
//
//	db := apq.LoadTPCH(1, 42)
//	eng := apq.NewEngine(db, apq.TwoSocketMachine())
//	q := apq.TPCHQuery(6)
//	sess := eng.NewAdaptiveSession(q)
//	report, err := sess.Converge()
//	// report.Speedup(), report.BestPlan, report.History ...
package apq

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/heuristic"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpcds"
	"repro/internal/tpch"
)

// Machine describes the simulated multi-core hardware (see docs/ARCHITECTURE.md
// §scale for calibration). Use TwoSocketMachine / FourSocketMachine for the
// paper's Table 1 configurations, or build a custom Machine directly.
type Machine = sim.Config

// NoiseConfig models OS interference (§3.3.3 of the paper).
type NoiseConfig = sim.NoiseConfig

// TwoSocketMachine mirrors the paper's 2-socket, 32-hyper-thread Xeon
// E5-2650 server.
func TwoSocketMachine() Machine { return sim.TwoSocket() }

// FourSocketMachine mirrors the paper's 4-socket, 96-hyper-thread Xeon
// E5-4657Lv2 server.
func FourSocketMachine() Machine { return sim.FourSocket() }

// TwoSocketAsymMachine is the two-socket machine with socket 1 power-capped
// to 0.7× — an asymmetric-NUMA regime where adaptive parallelization should
// learn a lopsided placement.
func TwoSocketAsymMachine() Machine { return sim.TwoSocketAsym() }

// FourSocketAsymMachine is the four-socket machine with a stepped clock
// gradient (1.0/0.9/0.75/0.6×) across packages.
func FourSocketAsymMachine() Machine { return sim.FourSocketAsym() }

// DefaultNoise returns the calibrated OS-noise model.
func DefaultNoise() NoiseConfig { return sim.DefaultNoise() }

// DB is a loaded database: a catalog of columnar tables.
type DB struct {
	cat *storage.Catalog
}

// Catalog exposes the underlying catalog for advanced integrations.
func (db *DB) Catalog() *storage.Catalog { return db.cat }

// LoadTPCH generates the synthetic TPC-H subset at scale factor sf
// (SF1 ≈ 60k lineitem rows at the library's 1/100 scale).
func LoadTPCH(sf float64, seed int64) *DB {
	return &DB{cat: tpch.Generate(tpch.Config{SF: sf, Seed: seed})}
}

// LoadTPCDS generates the skewed TPC-DS-like star schema at scale factor sf.
func LoadTPCDS(sf float64, seed int64) *DB {
	return &DB{cat: tpcds.Generate(tpcds.Config{SF: sf, Seed: seed})}
}

// Query wraps an executable plan.
type Query struct {
	p *plan.Plan
}

// String renders the plan in MAL-flavoured text.
func (q *Query) String() string { return q.p.String() }

// Dot renders the plan's dataflow graph in Graphviz format (Figure 7).
func (q *Query) Dot() string { return q.p.Dot() }

// Stats summarizes the plan (Table 5 quantities).
func (q *Query) Stats() PlanStats { return heuristic.Stats(q.p) }

// PlanStats are the plan statistics the paper reports in Table 5.
type PlanStats = heuristic.PlanStats

// TPCHQuery returns the serial plan for the implemented TPC-H queries
// (4, 6, 8, 9, 13, 14, 17, 19, 22).
func TPCHQuery(n int) *Query { return &Query{p: tpch.MustQuery(n)} }

// TPCHQueryNumbers lists the implemented TPC-H queries.
func TPCHQueryNumbers() []int { return tpch.QueryNumbers() }

// TPCDSQuery returns the serial plan for TPC-DS templates 1–5.
func TPCDSQuery(n int) *Query { return &Query{p: tpcds.MustQuery(n)} }

// TPCDSQueryNumbers lists the implemented TPC-DS templates.
func TPCDSQueryNumbers() []int { return tpcds.QueryNumbers() }

// Engine executes queries on one simulated machine.
type Engine struct {
	inner *exec.Engine
}

// NewEngine creates an engine for db on the given machine, priced with the
// MonetDB-style cost calibration. The machine's Noise and Seed fields set
// its OS-noise model.
func NewEngine(db *DB, m Machine) *Engine {
	return &Engine{inner: exec.NewEngine(db.cat, m, cost.Default())}
}

// Internal exposes the internal engine for the workload driver and
// benchmarks that need raw access.
func (e *Engine) Internal() *exec.Engine { return e.inner }

// Machine returns the engine's machine configuration.
func (e *Engine) Machine() Machine { return e.inner.Machine().Config() }

// Result is one query execution's outcome.
type Result struct {
	Values  []exec.Value
	Profile *exec.Profile
}

// Scalar returns result value i as a scalar.
func (r *Result) Scalar(i int) (int64, error) {
	if i < 0 || i >= len(r.Values) || r.Values[i].Kind != plan.KindScalar {
		return 0, fmt.Errorf("apq: result %d is not a scalar", i)
	}
	return r.Values[i].Scalar, nil
}

// MakespanNs returns the query's virtual response time in nanoseconds.
func (r *Result) MakespanNs() float64 { return r.Profile.Makespan() }

// Utilization returns the multi-core utilization (the paper's "parallelism
// usage", Figures 19/20).
func (r *Result) Utilization() float64 { return r.Profile.Utilization() }

// Tomograph renders the per-core execution timeline (Figures 19/20).
func (r *Result) Tomograph(width int) string { return r.Profile.Tomograph(width) }

// Execute runs q from the engine's current virtual time.
func (e *Engine) Execute(q *Query) (*Result, error) {
	vals, prof, err := e.inner.Execute(q.p)
	if err != nil {
		return nil, err
	}
	return &Result{Values: vals, Profile: prof}, nil
}

// ResultsEqual compares two results structurally (used to verify that
// differently parallelized plans agree).
func ResultsEqual(a, b *Result) bool {
	return exec.ResultsEqual(a.Values, b.Values)
}
