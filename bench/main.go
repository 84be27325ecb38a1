// Command bench is the serving benchmark for apqd. It builds ./cmd/apqd from
// the tree it stands in, drives it as a separate process over loopback HTTP
// with a closed loop of one client connection (a second one for the writer),
// and reports end-to-end metrics that are exact counts or in-run paired
// ratios against a reference server, so that host drift cancels inside each
// run. A separate traced invocation (-trace 1) rebuilds the same stack
// in-process from public constructors and replays the same requests at
// successively lower entry points for per-layer self times. See README.md.
//
//	sh bench/run.sh -workload scan_hot -seed 7 -seconds 16 -trace 0   # one workload, one result line
//	sh bench/run.sh                        # all four workloads, JSON summary
//	sh bench/run.sh -trace 1               # … with the per-layer replay
//	sh bench/run.sh -quick                 # ≤25 s smoke run
//	sh bench/run.sh -aa 10                 # A/A noise check (writes the NOISE.md table)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// rounds is how many fresh daemons each workload is measured on per
// invocation; -seconds is split evenly between them.
const rounds = 2

func main() { os.Exit(run()) }

func run() int {
	var (
		refserver = flag.Bool("refserver", false, "serve as the reference server (the harness starts itself this way)")
		name      = flag.String("workload", "", "run one workload and print one result line (default: all, with a JSON summary)")
		seed      = flag.Int64("seed", 42, "drives apqd -seed, the appended rows and the oracle's probe predicates")
		seconds   = flag.Float64("seconds", 16, "measured time per workload, split over the rounds")
		trace     = flag.Int("trace", 0, "1 = traced run: one short end-to-end round plus the in-process per-layer replay")
		nrounds   = flag.Int("rounds", rounds, "rounds per workload, each on a fresh daemon")
		quick     = flag.Bool("quick", false, "smoke run: 1 round, 2 s phases, all workloads, oracle on")
		aa        = flag.Int("aa", 0, "A/A mode: N interleaved pairs of complete runs of the same binary; non-zero exit when a pair of medians differs by more than the metric's bound")
		out       = flag.String("out", "", "also write the JSON summary (or the A/A table) to this file")
	)
	flag.Parse()
	if *refserver {
		return runRefServer()
	}

	// Children die with the harness on every exit path: normal return,
	// failure, panic (re-raised after the reap) and SIGINT/SIGTERM.
	defer func() {
		p := recover()
		stopAll()
		if p != nil {
			panic(p)
		}
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(130)
	}()

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	ws := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		ws = []*workload{w}
	}
	env := environment()
	if env.Load1Start > 0.5*float64(env.NProc) {
		fmt.Fprintf(os.Stderr, "bench: WARNING load average %.2f on %d CPUs: ratios survive this, raw bench.* milliseconds do not\n", env.Load1Start, env.NProc)
	}
	apqd, err := buildDaemon(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cfg := configFor(*seconds, *nrounds, *trace == 1, *quick)
	cfg.seed, cfg.apqd, cfg.outDir = *seed, apqd, filepath.Join(root, "bench", "out")

	if *aa > 0 {
		return runAA(ws, cfg, *aa, *out)
	}
	reports := measure(ws, cfg)
	if *trace == 1 {
		for _, w := range ws {
			rep := reports[w.Name]
			layers, err := traceWorkload(w, cfg, rep.Layers)
			if err != nil {
				rep.Correct = false
				rep.Errors = append(rep.Errors, "trace: "+err.Error())
				fmt.Fprintf(os.Stderr, "bench: %s trace: %v\n", w.Name, err)
			}
			for k, v := range layers {
				rep.Layers[k] = v
			}
		}
	}
	env.Load1End = loadAvg1()

	ok := true
	for _, rep := range reports {
		ok = ok && rep.Correct
	}
	if *name != "" {
		printResultLine(reports[*name], *trace == 1)
	} else {
		printSummary(env, ws, reports, *out)
	}
	if !ok {
		return 1
	}
	return 0
}

// configFor splits the measured seconds over the rounds. Three quarters go
// to the measured phase and one quarter to the write tail (a churning
// workload measures beside the writer throughout, so its tail is its
// measured phase). A traced run needs the end-to-end round only for the
// bench.* diagnostics and the daemon's counters, so it runs one short one.
func configFor(seconds float64, nrounds int, traced, quick bool) *runConfig {
	if quick {
		nrounds, seconds = 1, 2.5
	} else if traced {
		nrounds, seconds = 1, seconds/4
	}
	if nrounds < 1 {
		nrounds = 1
	}
	per := time.Duration(seconds / float64(nrounds) * float64(time.Second))
	cfg := &runConfig{rounds: nrounds, measure: per * 3 / 4, tail: per / 4, warm: per / 8, extraSetups: 18}
	if quick || traced {
		cfg.extraSetups = 0
	}
	return cfg
}

// repoRoot finds the tree under test: the directory holding cmd/apqd, which
// is the working directory under bench/run.sh and its parent under
// `go -C bench run .`.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "apqd")); err == nil && st.IsDir() {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("no cmd/apqd here or one level up: run from the root of the repository")
}

// buildDaemon compiles ./cmd/apqd of the tree under test into .bench_build/
// (with the Go environment bench/run.sh set up, build cache included).
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "apqd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/apqd")
	cmd.Dir = root
	if outp, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/apqd: %v\n%s", err, outp)
	}
	return bin, nil
}

// envInfo is recorded with every summary so a surprising number can be read
// against the machine that produced it.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Load1Start float64 `json:"load1_start"`
	Load1End   float64 `json:"load1_end"`
}

func environment() envInfo {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return envInfo{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: strings.TrimSpace(string(kernel)), Load1Start: loadAvg1(),
	}
}

// printResultLine prints the one-object result the benchmark contract asks
// for as the last line of standard output: every end-to-end metric after an
// end-to-end run, every per-layer metric after a traced run.
func printResultLine(rep *report, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, rep.EndToEnd
	if traced {
		defs, vals = perLayer, rep.Layers
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{Value: vals[d.Name], Unit: d.Unit}
	}
	if !traced {
		// The diagnostics still go to the operator, on stderr.
		diag, _ := json.Marshal(rep.Layers)
		fmt.Fprintf(os.Stderr, "bench: %s diagnostics %s\n", rep.Workload, diag)
	}
	line, err := json.Marshal(map[string]any{
		"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(string(line))
}

// printSummary prints the whole-benchmark JSON document. No gain is claimed
// by the change that defines the benchmark, so the claim is null.
func printSummary(env envInfo, ws []*workload, reports map[string]*report, outPath string) {
	type summary struct {
		Env       envInfo   `json:"env"`
		Workloads []*report `json:"workloads"`
		Claim     *string   `json:"claim"`
	}
	s := summary{Env: env}
	for _, w := range ws {
		s.Workloads = append(s.Workloads, reports[w.Name])
	}
	doc, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(err)
	}
	fmt.Println(string(doc))
	if outPath != "" {
		if err := os.WriteFile(outPath, append(doc, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}
}
