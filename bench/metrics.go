package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef describes one reported metric. BENCHMARK.json carries the same
// table; bench_test.go keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the median
	// Exact marks a count that must repeat bit-for-bit across the rounds of
	// a run (same seed, same binary); a run whose rounds disagree fails.
	Exact bool
}

// endToEnd are the gated metrics. All but the last three are in-run paired
// ratios or exact counts, so host drift cancels inside each run; raw
// milliseconds are printed only as bench.* diagnostics.
//
// Each bound is at least three times the widest quartile spread the metric
// showed on any workload over ten seeds (NOISE.md), rounded up, and never
// above the 25 % the benchmark contract allows. The spread over seeds is
// wider than the run-to-run noise at one seed because the seed generates the
// data: converged plans, and so latencies and heap peaks, differ by seed.
var endToEnd = []metricDef{
	{Name: "p50_rel", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "wall_speedup", Unit: "ratio", Better: "higher", Bound: 0.12},
	{Name: "cpu_rel", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "cold_step_rel", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "mutation_rel", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "read_during_write_rel", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "virtual_speedup", Unit: "ratio", Better: "higher", Bound: 0.15, Exact: true},
	{Name: "converge_requests", Unit: "count", Better: "lower", Bound: 0.10, Exact: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// median of xs; 0 for an empty slice. xs is not reordered.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation quantile (the "inclusive" method) of
// xs at p in [0,1]; 0 for an empty slice. xs is not reordered.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles are Python's statistics.quantiles(xs, n=4) — the "exclusive"
// method the acceptance check uses — so spreads computed here agree with the
// driver's. Needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// trimmedMean drops the lowest and highest share p of xs and averages the
// rest; p = 0.25 is the interquartile mean. Unlike a median it moves
// smoothly when the population is a mixture (nine different cold queries;
// appends and truncates), and unlike a mean one stall cannot move it. 0 for
// an empty slice. xs is not reordered.
func trimmedMean(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if k := int(float64(len(s)) * p); len(s) > 2*k {
		s = s[k : len(s)-k]
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func flatten(xss [][]float64) []float64 {
	var out []float64
	for _, xs := range xss {
		out = append(out, xs...)
	}
	return out
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sumOfMedians adds up each query's median latency: the join_hot form of a
// per-request latency when the round-robin mixes queries of different cost.
func sumOfMedians(perQuery [][]float64) float64 {
	var s float64
	for _, xs := range perQuery {
		s += median(xs)
	}
	return s
}

// endToEndOf turns one round's raw samples into its end-to-end values
// (setup_s excepted: it pools every start of the run). The estimator of each
// latency ratio is the one that repeated best over ten recorded runs per
// workload: the hot latency is paired with the reference latency of its own
// cycle (a host stall then hits both or neither), sums of per-query medians
// where serial and hot legs of a round-robin are compared, trimmed means
// where the population is a mixture by construction.
func endToEndOf(r *roundResult) map[string]float64 {
	m, w := r.measured, r.write
	return map[string]float64{
		"p50_rel":               median(m.hotOverRef),
		"wall_speedup":          ratio(sumOfMedians(m.serial), sumOfMedians(m.hot)),
		"cpu_rel":               ratio(m.daemonCPU, m.refCPU),
		"cold_step_rel":         ratio(trimmedMean(r.coldLat, 0.05), trimmedMean(r.coldRef, 0.05)),
		"mutation_rel":          ratio((trimmedMean(w.appends, 0.25)+trimmedMean(w.truncates, 0.25))/2, trimmedMean(w.ref, 0.25)),
		"read_during_write_rel": ratio(median(w.raced), median(w.ref)),
		"virtual_speedup":       geomean(r.speedups),
		"converge_requests":     float64(r.coldRequests),
		"peak_rss_mb":           r.peakRSSMB,
	}
}

// medianOfRounds folds per-round values into the run's value per metric, and
// reports every exact metric whose rounds disagree.
func medianOfRounds(rounds []map[string]float64) (map[string]float64, []string) {
	out := map[string]float64{}
	var inexact []string
	for _, def := range endToEnd {
		var xs []float64
		for _, r := range rounds {
			if v, ok := r[def.Name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			continue
		}
		out[def.Name] = median(xs)
		if def.Exact {
			for _, x := range xs[1:] {
				if x != xs[0] {
					inexact = append(inexact, fmt.Sprintf("%s differs between rounds: %v", def.Name, xs))
					break
				}
			}
		}
	}
	return out, inexact
}

// perLayer are the ungated metrics of single layers, named <module>.<what>.
// Sources: the harness client and the daemon's GET /stats after an
// end-to-end round (run.go), and the in-process replay (trace.go).
var perLayer = []metricDef{
	{Name: "bench.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.p95_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.rps", Unit: "1/s", Better: "higher"},
	{Name: "bench.serial_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.ref_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.cpu_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "bench.converge_s", Unit: "s", Better: "lower"},
	{Name: "bench.round_spread", Unit: "ratio", Better: "lower"},
	{Name: "bench.load1_start", Unit: "count", Better: "lower"},
	{Name: "bench.load1_end", Unit: "count", Better: "lower"},
	{Name: "bench.unattributed_us", Unit: "us", Better: "lower"},
	{Name: "tpch.generate_s", Unit: "s", Better: "lower"},
	{Name: "tpch.rows", Unit: "count", Better: "lower"},
	{Name: "server.handle_us", Unit: "us", Better: "lower"},
	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "server.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "server.bytes_per_req", Unit: "bytes", Better: "lower"},
	{Name: "server.encode_result_us", Unit: "us", Better: "lower"},
	{Name: "server.decode_result_us", Unit: "us", Better: "lower"},
	{Name: "server.result_bytes", Unit: "bytes", Better: "lower"},
	{Name: "server.mutation_us", Unit: "us", Better: "lower"},
	{Name: "server.coalesced_requests", Unit: "count", Better: "higher"},
	{Name: "server.errors", Unit: "count", Better: "lower"},
	{Name: "plancache.invoke_us", Unit: "us", Better: "lower"},
	{Name: "plancache.self_us", Unit: "us", Better: "lower"},
	{Name: "plancache.hits", Unit: "count", Better: "higher"},
	{Name: "plancache.misses", Unit: "count", Better: "lower"},
	{Name: "plancache.evictions", Unit: "count", Better: "lower"},
	{Name: "plancache.data_reopens", Unit: "count", Better: "lower"},
	{Name: "plancache.reconverge_requests", Unit: "count", Better: "lower"},
	{Name: "core.step_us", Unit: "us", Better: "lower"},
	{Name: "core.self_us", Unit: "us", Better: "lower"},
	{Name: "core.runs_to_converge", Unit: "count", Better: "lower"},
	{Name: "core.attempts", Unit: "count", Better: "lower"},
	{Name: "plan.clone_us", Unit: "us", Better: "lower"},
	{Name: "plan.validate_us", Unit: "us", Better: "lower"},
	{Name: "plan.diff_us", Unit: "us", Better: "lower"},
	{Name: "plan.encode_us", Unit: "us", Better: "lower"},
	{Name: "plan.instrs", Unit: "count", Better: "lower"},
	{Name: "plan.dop", Unit: "count", Better: "higher"},
	{Name: "exec.execute_us", Unit: "us", Better: "lower"},
	{Name: "exec.execute_serial_us", Unit: "us", Better: "lower"},
	{Name: "exec.plan_overhead_us", Unit: "us", Better: "lower"},
	{Name: "exec.self_us", Unit: "us", Better: "lower"},
	{Name: "exec.recycler_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "exec.compile_full", Unit: "count", Better: "lower"},
	{Name: "exec.compile_derived", Unit: "count", Better: "higher"},
	{Name: "exec.retained_mb", Unit: "MB", Better: "lower"},
	{Name: "algebra.select_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "algebra.fetch_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "algebra.aggr_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "algebra.hashjoin_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "algebra.groupby_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "algebra.kernel_us", Unit: "us", Better: "lower"},
	{Name: "algebra.tuples_per_req", Unit: "count", Better: "lower"},
	{Name: "sim.run_us", Unit: "us", Better: "lower"},
	{Name: "sim.ns_per_task", Unit: "ns", Better: "lower"},
	{Name: "sim.tasks_per_req", Unit: "count", Better: "lower"},
	{Name: "sim.virtual_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.append_us", Unit: "us", Better: "lower"},
	{Name: "storage.truncate_us", Unit: "us", Better: "lower"},
	{Name: "storage.append_bytes_copied", Unit: "bytes", Better: "lower"},
}
