// Package experiments regenerates every table and figure of the paper's
// evaluation section (§4). Each experiment is a pure function from a Scale
// (how much data / how many adaptation runs to spend) to a structured
// result with a text rendering; cmd/experiments prints them and
// bench_test.go measures them, sharing one implementation.
//
// Absolute numbers are virtual-time milliseconds on the simulated machines
// of Table 1 (scaled 1/100, docs/ARCHITECTURE.md §scale); the quantities to
// compare with the paper are the *shapes*: who wins, by what factor, where
// crossovers fall. A table's notes state the paper's claim where it makes
// one, and go run ./cmd/experiments prints them beside the measured rows
// (ROADMAP item 10 turns the claims into checked inequalities).
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// Scale sizes an experiment run.
type Scale struct {
	// Name labels the preset.
	Name string
	// TPCHSF is the TPC-H scale factor (SF1 ≈ 60k lineitem rows).
	TPCHSF float64
	// TPCDSSF is the TPC-DS scale factor (SF1 ≈ 28.8k fact rows).
	TPCDSSF float64
	// MicroRows sizes micro-benchmark columns (the paper's 1000M-row
	// selects and 80–400M-row join outers, scaled).
	MicroRows int
	// ConvCores / ConvExtraRuns tune the convergence budget; Quick uses a
	// smaller budget so benches finish in seconds.
	ConvCores     int
	ConvExtraRuns int
	// Clients and Repeats size concurrent workloads.
	Clients, Repeats int
	// Seed drives all generation.
	Seed int64
}

// Quick is the default preset: every experiment in seconds.
func Quick() Scale {
	return Scale{
		Name: "quick", TPCHSF: 1, TPCDSSF: 8, MicroRows: 1_000_000,
		ConvCores: 32, ConvExtraRuns: 4, Clients: 8, Repeats: 2, Seed: 42,
	}
}

// Full is the paper-shaped preset: larger data, full convergence budgets.
func Full() Scale {
	return Scale{
		Name: "full", TPCHSF: 4, TPCDSSF: 16, MicroRows: 4_000_000,
		ConvCores: 32, ConvExtraRuns: 8, Clients: 16, Repeats: 3, Seed: 42,
	}
}

func (s Scale) convConfig() core.ConvergenceConfig {
	return core.ConvergenceConfig{Cores: s.ConvCores, ExtraRuns: s.ConvExtraRuns, GMEThreshold: 0.02}
}

// newEngine builds an engine over cat on the 2-socket machine.
func newEngine(cat *storage.Catalog, cfg sim.Config) *exec.Engine {
	return exec.NewEngine(cat, cfg, cost.Default())
}

// converge runs a full adaptive session and returns its report. Every run's
// result is checked against the serial plan's: a figure must not print a
// speedup for a plan that computes the wrong answer.
func converge(eng *exec.Engine, p *plan.Plan, cc core.ConvergenceConfig) (*core.Report, error) {
	s := core.NewSession(eng, p, core.DefaultMutationConfig(), cc)
	s.VerifyResults = true
	return s.Converge()
}

// ms formats virtual nanoseconds as milliseconds.
func ms(ns float64) string { return fmt.Sprintf("%.3f", ns/1e6) }

// makeSkewedColumn reproduces the Figure 13 distribution: half random
// tuples, then sequential clusters of identical tuples. matched values are
// those selected by predicate value 7 at the given skew percentage.
func makeSkewedColumn(rows, skewPct int, seed int64) *storage.Catalog {
	vals := make([]int64, rows)
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func() uint64 {
		state = state*2862933555777941757 + 3037000493
		return state
	}
	clusterRows := rows * skewPct / 100
	for i := range vals {
		if i >= rows/2 && i < rows/2+clusterRows {
			vals[i] = 7
		} else {
			vals[i] = int64(next()%1_000_000) + 1_000_000
		}
	}
	t := storage.NewTable("skewed")
	t.MustAddColumn(storage.NewIntColumn("v", vals))
	cat := storage.NewCatalog()
	cat.MustAdd(t)
	return cat
}

// selectSumPlan is the select micro-benchmark plan (§4.1).
func selectSumPlan(table, col string, lo, hi int64) *plan.Plan {
	b := plan.NewBuilder()
	c := b.Bind(table, col)
	s := b.Select(c, algebra.Between(lo, hi))
	f := b.Fetch(s, c)
	sum := b.Aggr(algebra.AggrSum, f)
	b.Result(sum)
	return b.Plan()
}

// joinSumPlan is the join micro-benchmark plan (§4.1.2): outer key column
// probed against a small inner; matched payloads summed.
func joinSumPlan() *plan.Plan {
	b := plan.NewBuilder()
	outer := b.Bind("big", "k")
	inner := b.Bind("small", "k")
	payload := b.Bind("small", "v")
	_, ro := b.Join(outer, inner)
	vals := b.Fetch(ro, payload)
	sum := b.Aggr(algebra.AggrSum, vals)
	b.Result(sum)
	return b.Plan()
}

// makeJoinCatalog builds the §4.1.2 micro-benchmark inputs: outerRows
// random keys over an innerRows-key dimension with payloads.
func makeJoinCatalog(outerRows, innerRows int, seed int64) *storage.Catalog {
	outer := make([]int64, outerRows)
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	for i := range outer {
		state = state*6364136223846793005 + 1442695040888963407
		outer[i] = int64(state % uint64(innerRows))
	}
	inner := make([]int64, innerRows)
	payload := make([]int64, innerRows)
	for i := range inner {
		inner[i] = int64(i)
		payload[i] = int64(i) * 3
	}
	big := storage.NewTable("big")
	big.MustAddColumn(storage.NewIntColumn("k", outer))
	small := storage.NewTable("small")
	small.MustAddColumn(storage.NewIntColumn("k", inner))
	small.MustAddColumn(storage.NewIntColumn("v", payload))
	cat := storage.NewCatalog()
	cat.MustAdd(big)
	cat.MustAdd(small)
	return cat
}

// Table renders a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Format renders the table.
func (t *Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteString("\n")
	}
	line(t.Headers)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// tpchCatalog memoizes the TPC-H catalog per (sf, seed) for one process.
var tpchCache = map[string]*storage.Catalog{}

func tpchCatalog(sf float64, seed int64) *storage.Catalog {
	key := fmt.Sprintf("%v-%d", sf, seed)
	if c, ok := tpchCache[key]; ok {
		return c
	}
	c := tpch.Generate(tpch.Config{SF: sf, Seed: seed})
	tpchCache[key] = c
	return c
}
