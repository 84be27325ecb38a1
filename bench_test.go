package apq

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section. Each benchmark regenerates its experiment
// (shared implementation in internal/experiments, also used by
// cmd/experiments) and reports the headline quantities as custom metrics so
// `go test -bench . -benchmem` prints the same series the paper reports.
//
// Times are VIRTUAL milliseconds on the simulated Table 1 machines; compare
// shapes (who wins, ratios, crossovers) with the paper, not absolute values
// — go run ./cmd/experiments prints the tables with the paper's claims in
// their notes, and ROADMAP item 10 turns those claims into checked
// inequalities.

import (
	"strconv"
	"testing"

	"repro/internal/experiments"
)

func benchScale() experiments.Scale { return experiments.Quick() }

// parseMs pulls a milliseconds cell back out of a rendered experiment row.
func parseMs(cell string) float64 {
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return 0
	}
	return v
}

func BenchmarkTable1SystemConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table1(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 2 {
			b.Fatal("expected two machine configurations")
		}
	}
}

func BenchmarkFigure01DOPUnderConcurrency(b *testing.B) {
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.Figure1(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	// Row 0 is Q9: report its DOP-8 vs DOP-32 latencies.
	b.ReportMetric(parseMs(t.Rows[0][1]), "q9_dop8_ms")
	b.ReportMetric(parseMs(t.Rows[0][3]), "q9_dop32_ms")
	b.Log("\n" + t.Format())
}

func BenchmarkFigure08DynamicPartitioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure8(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 4 {
			b.Fatal("expected 4 evolution steps")
		}
	}
}

func BenchmarkFigure11ConvergenceScenarios(b *testing.B) {
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.Figure11(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	first := parseMs(t.Rows[0][1])
	last := parseMs(t.Rows[len(t.Rows)-1][1])
	b.ReportMetric(first, "serial_ms")
	b.ReportMetric(last, "final_ms")
	b.ReportMetric(float64(len(t.Rows)), "runs")
	b.Log("\n" + t.Format())
}

func BenchmarkFigure12SkewedSelect(b *testing.B) {
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.Figure12(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	// Skew 50% row: static-8 vs dynamic.
	row := t.Rows[len(t.Rows)-1]
	b.ReportMetric(parseMs(row[1]), "static8_ms")
	b.ReportMetric(parseMs(row[2]), "steal128_ms")
	b.ReportMetric(parseMs(row[3]), "dynamic_ms")
	b.Log("\n" + t.Format())
}

func BenchmarkFigure13SkewDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure13(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 20 {
			b.Fatal("expected 20 histogram buckets")
		}
	}
}

func BenchmarkFigure14SelectConvergence(b *testing.B) {
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.Figure14(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(parseMs(t.Rows[0][2]), "serial_ms")
	b.ReportMetric(parseMs(t.Rows[0][7]), "gme_ms")
	b.Log("\n" + t.Format())
}

func BenchmarkTable2SelectSpeedup(b *testing.B) {
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.Table2(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(parseMs(t.Rows[2][1]), "ap_speedup_10gb_0pct")
	b.ReportMetric(parseMs(t.Rows[2][2]), "hp_speedup_10gb_0pct")
	b.Log("\n" + t.Format())
}

func BenchmarkFigure15JoinConvergence(b *testing.B) {
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.Figure15(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(parseMs(t.Rows[0][1]), "serial_ms")
	b.ReportMetric(parseMs(t.Rows[0][6]), "gme_ms")
	b.Log("\n" + t.Format())
}

func BenchmarkTable3JoinSpeedup(b *testing.B) {
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.Table3(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(parseMs(t.Rows[0][1]), "ap_speedup_spilled_inner")
	b.ReportMetric(parseMs(t.Rows[0][3]), "ap_speedup_l3_inner")
	b.Log("\n" + t.Format())
}

func BenchmarkTable4QueryClasses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table4(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 2 {
			b.Fatal("expected simple and complex classes")
		}
	}
}

func BenchmarkFigure16IsolatedConcurrent(b *testing.B) {
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.Figure16(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	// Q14 row: HP vs AP vs VW isolated and concurrent.
	for _, row := range t.Rows {
		if row[0] == "Q14" {
			b.ReportMetric(parseMs(row[1]), "q14_hp_iso_ms")
			b.ReportMetric(parseMs(row[2]), "q14_ap_iso_ms")
			b.ReportMetric(parseMs(row[4]), "q14_hp_conc_ms")
			b.ReportMetric(parseMs(row[5]), "q14_ap_conc_ms")
		}
	}
	b.Log("\n" + t.Format())
}

func BenchmarkFigure17TPCDS(b *testing.B) {
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.Figure17(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(parseMs(t.Rows[0][1]), "q1_hp_2s_ms")
	b.ReportMetric(parseMs(t.Rows[0][2]), "q1_ap_2s_ms")
	b.Log("\n" + t.Format())
}

func BenchmarkFigure18Robustness(b *testing.B) {
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.Figure18(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(parseMs(t.Rows[0][1]), "q4_runs_inv1")
	b.ReportMetric(parseMs(t.Rows[0][2]), "q4_runs_inv2")
	b.Log("\n" + t.Format())
}

func BenchmarkTable5PlanStats(b *testing.B) {
	var r *experiments.Table5Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Table5(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(parseMs(r.Table.Rows[0][1]), "ap_selects")
	b.ReportMetric(parseMs(r.Table.Rows[0][2]), "hp_selects")
	b.ReportMetric(parseMs(r.Table.Rows[4][1]), "ap_util_pct")
	b.ReportMetric(parseMs(r.Table.Rows[4][2]), "hp_util_pct")
	b.Log("\n" + r.Table.Format() + "\n" + r.APTomograph + "\n" + r.HPTomograph)
}

// BenchmarkAblationSplitFactor measures the paper's §4.3 discussion ("the
// number of runs could be made much lower if more operators are introduced
// per invocation"): convergence runs and GME quality when each mutation
// splits the expensive operator 2-way vs 4-way.
func BenchmarkAblationSplitFactor(b *testing.B) {
	db := LoadTPCH(2, 11)
	for _, factor := range []int{2, 4} {
		b.Run("split"+strconv.Itoa(factor), func(b *testing.B) {
			var rep *ConvergenceReport
			for i := 0; i < b.N; i++ {
				eng := NewEngine(db, TwoSocketMachine())
				mc := DefaultMutationConfig()
				mc.SplitFactor = factor
				sess := eng.NewAdaptiveSession(TPCHQuery(6),
					WithMutationConfig(mc),
					WithConvergenceConfig(DefaultConvergenceConfig(16)))
				var err error
				rep, err = sess.Converge()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.TotalRuns), "runs")
			b.ReportMetric(float64(rep.GMERun), "gme_run")
			b.ReportMetric(rep.Speedup(), "speedup")
		})
	}
}

// BenchmarkAblationPackThreshold measures the exchange-union suppression
// threshold's effect (§2.3 plan explosion control): 15 (the paper's MAL
// parameter count) vs 33 (this implementation's default).
func BenchmarkAblationPackThreshold(b *testing.B) {
	db := LoadTPCDS(8, 11)
	for _, th := range []int{15, 33} {
		b.Run("threshold"+strconv.Itoa(th), func(b *testing.B) {
			var rep *ConvergenceReport
			for i := 0; i < b.N; i++ {
				eng := NewEngine(db, TwoSocketMachine())
				mc := DefaultMutationConfig()
				mc.PackInputThreshold = th
				sess := eng.NewAdaptiveSession(TPCDSQuery(5),
					WithMutationConfig(mc),
					WithConvergenceConfig(DefaultConvergenceConfig(16)))
				var err error
				rep, err = sess.Converge()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.TotalRuns), "runs")
			b.ReportMetric(rep.Speedup(), "speedup")
		})
	}
}
