package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// runAA is the benchmark's own acceptance check, and the evidence behind
// every bound in the metric table: n interleaved pairs (A1 B1 A2 B2 …) of
// complete runs of the same binary, pair i on seed+i. Two sets of runs of the
// same code must agree: for every workload × end-to-end metric it prints both
// sets' medians, the gap between them, each set's quartile spread
// (interquartile range over median, Python's statistics.quantiles method —
// the same arithmetic the acceptance driver applies to its own ten runs) and
// the median difference inside a pair.
// It exits non-zero when a gap or a spread (setup_s excepted, as in the
// driver) exceeds the metric's bound, when a run reports a failure, or when
// an exact metric differs inside a pair.
func runAA(ws []*workload, cfg *runConfig, n int, outPath string) int {
	type cell struct{ a, b []float64 }
	cells := map[string]*cell{}
	key := func(w, m string) string { return w + "\x00" + m }
	var problems []string
	base := cfg.seed
	for i := 0; i < n; i++ {
		cfg.seed = base + int64(i)
		var pair [2]map[string]*report
		for side := range pair {
			fmt.Fprintf(os.Stderr, "bench: A/A pair %d/%d side %c seed %d\n", i+1, n, 'A'+side, cfg.seed)
			pair[side] = measure(ws, cfg)
			for _, w := range ws {
				vals, _ := json.Marshal(pair[side][w.Name].EndToEnd)
				fmt.Fprintf(os.Stderr, "bench: A/A %s seed %d %c %s\n", w.Name, cfg.seed, 'A'+side, vals)
			}
		}
		for _, w := range ws {
			ra, rb := pair[0][w.Name], pair[1][w.Name]
			for _, rep := range []*report{ra, rb} {
				if !rep.Correct {
					problems = append(problems, fmt.Sprintf("%s seed %d: run not correct: %d failed, %v", w.Name, cfg.seed, rep.Failed, rep.Errors))
				}
			}
			for _, def := range endToEnd {
				c := cells[key(w.Name, def.Name)]
				if c == nil {
					c = &cell{}
					cells[key(w.Name, def.Name)] = c
				}
				va, vb := ra.EndToEnd[def.Name], rb.EndToEnd[def.Name]
				c.a, c.b = append(c.a, va), append(c.b, vb)
				if def.Exact && va != vb {
					problems = append(problems, fmt.Sprintf("%s %s seed %d: exact metric differs inside a pair: %v vs %v", w.Name, def.Name, cfg.seed, va, vb))
				}
			}
		}
	}
	cfg.seed = base

	var sb strings.Builder
	fmt.Fprintf(&sb, "| workload | metric | bound | median A | median B | gap | spread A | spread B | noise at one seed | verdict |\n")
	fmt.Fprintf(&sb, "|---|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range ws {
		for _, def := range endToEnd {
			c := cells[key(w.Name, def.Name)]
			ma, mb := median(c.a), median(c.b)
			gap := 0.0
			if ma != 0 {
				gap = math.Abs(mb-ma) / math.Abs(ma)
			}
			sa, sb2 := spread(c.a), spread(c.b)
			// Both runs of a pair share a seed, so their difference is the
			// noise alone; the spreads above also contain what the seed moves.
			var diffs []float64
			for i := range c.a {
				if mean := (c.a[i] + c.b[i]) / 2; mean != 0 {
					diffs = append(diffs, math.Abs(c.a[i]-c.b[i])/math.Abs(mean))
				}
			}
			verdict := "ok"
			switch {
			case gap > def.Bound:
				verdict = "GAP"
			case def.Name != "setup_s" && math.Max(sa, sb2) > def.Bound:
				verdict = "SPREAD"
			case def.Name != "setup_s" && math.Max(sa, sb2) > def.Bound/3:
				verdict = "ok (spread above a third of the bound)"
			}
			if verdict == "GAP" || verdict == "SPREAD" {
				problems = append(problems, fmt.Sprintf("%s %s: %s (gap %.1f%%, spreads %.1f%% / %.1f%%, bound %.0f%%)", w.Name, def.Name, verdict, gap*100, sa*100, sb2*100, def.Bound*100))
			}
			fmt.Fprintf(&sb, "| %s | %s | %.0f%% | %.4g | %.4g | %.1f%% | %.1f%% | %.1f%% | %.1f%% | %s |\n",
				w.Name, def.Name, def.Bound*100, ma, mb, gap*100, sa*100, sb2*100, median(diffs)*100, verdict)
		}
	}
	fmt.Print(sb.String())
	if outPath != "" {
		if err := os.WriteFile(outPath, []byte(sb.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "bench: A/A:", p)
	}
	if len(problems) > 0 {
		return 1
	}
	return 0
}
