// Package apq is an adaptive query parallelization engine for multi-core
// column stores — a from-scratch Go reproduction of Gawade & Kersten,
// "Adaptive query parallelization in multi-core column stores" (EDBT 2016).
//
// The library bundles a complete columnar execution stack: typed columnar
// storage with zero-copy range views, relational operators (select, hash
// join, tuple reconstruction, grouping, aggregation, sort, exchange union),
// MAL-like SSA dataflow plans, a deterministic discrete-event multi-core
// machine (sockets, SMT, shared memory bandwidth, NUMA, OS noise), dbgen-like
// TPC-H and skewed TPC-DS workload generators, and four parallelization
// engines:
//
//   - Adaptive parallelization (the paper's contribution): execution
//     feedback morphs a serial plan by parallelizing its most expensive
//     operator per invocation, under a credit/debit convergence algorithm.
//   - Heuristic parallelization (MonetDB-style static mitosis baseline).
//   - Work-stealing configuration (many small static partitions).
//   - A simulated Vectorwise comparator (exchange overhead + admission
//     control).
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
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpcds"
	"repro/internal/tpch"
	"repro/internal/vec"
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

// NewDB returns an empty database.
func NewDB() *DB { return &DB{cat: storage.NewCatalog()} }

// LoadTPCH generates the synthetic TPC-H subset at scale factor sf
// (SF1 ≈ 60k lineitem rows at the library's 1/100 scale).
func LoadTPCH(sf float64, seed int64) *DB {
	return &DB{cat: tpch.Generate(tpch.Config{SF: sf, Seed: seed})}
}

// LoadTPCDS generates the skewed TPC-DS-like star schema at scale factor sf.
func LoadTPCDS(sf float64, seed int64) *DB {
	return &DB{cat: tpcds.Generate(tpcds.Config{SF: sf, Seed: seed})}
}

// TableBuilder adds a custom table to a DB.
type TableBuilder struct {
	db  *DB
	t   *storage.Table
	err error
}

// AddTable starts building a table.
func (db *DB) AddTable(name string) *TableBuilder {
	return &TableBuilder{db: db, t: storage.NewTable(name)}
}

// Int64 attaches an int64 column (dates, decimals and keys are all int64).
func (b *TableBuilder) Int64(name string, vals []int64) *TableBuilder {
	if b.err == nil {
		b.err = b.t.AddColumn(storage.NewIntColumn(name, vals))
	}
	return b
}

// String attaches a dictionary-encoded string column.
func (b *TableBuilder) String(name string, vals []string) *TableBuilder {
	if b.err == nil {
		d := vec.NewDict()
		codes := make([]int64, len(vals))
		for i, s := range vals {
			codes[i] = d.Code(s)
		}
		b.err = b.t.AddColumn(storage.NewColumn(name, 0, vec.NewDictCoded(codes, d)))
	}
	return b
}

// Done registers the table with the database.
func (b *TableBuilder) Done() error {
	if b.err != nil {
		return b.err
	}
	return b.db.cat.Add(b.t)
}

// ColumnAppend carries the values appended to one column of a table: exactly
// one of Ints or Strs, matching the column's payload type.
type ColumnAppend = storage.ColumnAppend

// AppendRows returns a new DB in which table has the given rows appended.
// The receiver is unchanged, untouched tables are shared, and readers of the
// old DB keep seeing an immutable snapshot. The cost is amortized O(rows
// appended): a chain db → db.AppendRows → … grows one table in its spare
// capacity (behind every older DB's length), and only the first append to a
// built table, an append after a DeleteTail, a second append to the same DB,
// or one that outgrows the capacity copies the table. cols must name every
// column of the table exactly once, all with the same strictly positive
// number of appended rows.
func (db *DB) AppendRows(table string, cols map[string]ColumnAppend) (*DB, error) {
	ncat, err := db.cat.AppendRows(table, cols)
	if err != nil {
		return nil, err
	}
	return &DB{cat: ncat}, nil
}

// DeleteTail returns a new DB in which table has its last n rows removed: a
// shorter view of the same columns, O(columns). The receiver is unchanged.
func (db *DB) DeleteTail(table string, n int) (*DB, error) {
	ncat, err := db.cat.DeleteTail(table, n)
	if err != nil {
		return nil, err
	}
	return &DB{cat: ncat}, nil
}

// Query wraps an executable plan.
type Query struct {
	p *plan.Plan
}

// Plan exposes the underlying plan (read-only use: printing, stats).
func (q *Query) Plan() *plan.Plan { return q.p }

// String renders the plan in MAL-flavoured text.
func (q *Query) String() string { return q.p.String() }

// Dot renders the plan's dataflow graph in Graphviz format (Figure 7).
func (q *Query) Dot() string { return q.p.Dot() }

// Stats summarizes the plan (Table 5 quantities).
func (q *Query) Stats() PlanStats {
	return PlanStats{
		Selects: q.p.CountOps(plan.OpSelect) + q.p.CountOps(plan.OpSelectCand) + q.p.CountOps(plan.OpLikeSelect),
		Joins:   q.p.CountOps(plan.OpJoin),
		Packs:   q.p.CountOps(plan.OpPack),
		Instrs:  len(q.p.Instrs),
		MaxDOP:  q.p.MaxDOP(),
	}
}

// PlanStats are the plan statistics the paper reports in Table 5.
type PlanStats struct {
	Selects, Joins, Packs, Instrs, MaxDOP int
}

// TPCHQuery returns the serial plan for the implemented TPC-H queries
// (4, 6, 8, 9, 13, 14, 17, 19, 22).
func TPCHQuery(n int) *Query { return &Query{p: tpch.MustQuery(n)} }

// TPCHQueryNumbers lists the implemented TPC-H queries.
func TPCHQueryNumbers() []int { return tpch.QueryNumbers() }

// TPCHClassification returns the paper's Table 4 simple/complex labels.
func TPCHClassification() map[int]string { return tpch.Classification() }

// TPCDSQuery returns the serial plan for TPC-DS templates 1–5.
func TPCDSQuery(n int) *Query { return &Query{p: tpcds.MustQuery(n)} }

// TPCDSQueryNumbers lists the implemented TPC-DS templates.
func TPCDSQueryNumbers() []int { return tpcds.QueryNumbers() }

// Q6Params parameterizes the TPC-H Q6 selectivity/size sweeps.
type Q6Params = tpch.Q6Params

// TPCHQ6 builds Q6 with explicit parameters (Figure 14 / Table 2 sweeps).
func TPCHQ6(p Q6Params) *Query { return &Query{p: tpch.Q6(p)} }

// Engine executes queries on one simulated machine.
type Engine struct {
	inner *exec.Engine
}

// Option configures an Engine.
type Option func(*engineConfig)

type engineConfig struct {
	machine Machine
	params  cost.Params
}

// WithNoise enables the OS-noise model with the given configuration.
func WithNoise(n NoiseConfig) Option {
	return func(c *engineConfig) { c.machine.Noise = n }
}

// WithSeed seeds the machine's noise source.
func WithSeed(seed int64) Option {
	return func(c *engineConfig) { c.machine.Seed = seed }
}

// WithCostParams overrides the cost calibration.
func WithCostParams(p cost.Params) Option {
	return func(c *engineConfig) { c.params = p }
}

// NewEngine creates an engine for db on the given machine.
func NewEngine(db *DB, m Machine, opts ...Option) *Engine {
	cfg := engineConfig{machine: m, params: cost.Default()}
	for _, o := range opts {
		o(&cfg)
	}
	return &Engine{inner: exec.NewEngine(db.cat, cfg.machine, cfg.params)}
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
	if i >= len(r.Values) || r.Values[i].Kind != plan.KindScalar {
		return 0, fmt.Errorf("apq: result %d is not a scalar", i)
	}
	return r.Values[i].Scalar, nil
}

// Column returns result value i as an int64 slice (dictionary codes for
// string columns; use StringColumn for rendered strings).
func (r *Result) Column(i int) ([]int64, error) {
	if i >= len(r.Values) || r.Values[i].Kind != plan.KindColumn {
		return nil, fmt.Errorf("apq: result %d is not a column", i)
	}
	return r.Values[i].Col.Values(), nil
}

// StringColumn renders result value i as strings.
func (r *Result) StringColumn(i int) ([]string, error) {
	if i >= len(r.Values) || r.Values[i].Kind != plan.KindColumn {
		return nil, fmt.Errorf("apq: result %d is not a column", i)
	}
	col := r.Values[i].Col
	out := make([]string, col.Len())
	for j := range out {
		out[j] = col.Data().StringAt(j)
	}
	return out, nil
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
