package main

import (
	"fmt"
	"os"
)

// report is one workload's outcome over all rounds of an invocation.
type report struct {
	Workload  string             `json:"workload"`
	Rounds    int                `json:"rounds"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	// Layers holds the per-layer metrics this invocation produced: the
	// client-side bench.* diagnostics and the daemon's own counters after an
	// end-to-end run, plus the in-process layer timings after a traced run.
	Layers map[string]float64 `json:"layers"`
}

// measure runs cfg.rounds rounds of every workload in ws, interleaved
// (w1 w2 … w1 w2 …) so each workload's rounds are spread over the whole
// invocation, each on a freshly started daemon, then cfg.extraSetups bare
// start-stop cycles per workload for setup_s. A metric's value for the run
// is the median of its per-round values.
func measure(ws []*workload, cfg *runConfig) map[string]*report {
	type state struct {
		o      *oracle
		t      tally
		rounds []*roundResult
		setups []float64
		errs   []string
	}
	states := map[string]*state{}
	for _, w := range ws {
		states[w.Name] = &state{o: newOracle(w, cfg.seed)}
	}
	load0 := loadAvg1()
	for i := 0; i < cfg.rounds; i++ {
		for _, w := range ws {
			st := states[w.Name]
			if len(st.errs) > 0 {
				continue
			}
			r, err := runRound(w, cfg, st.o, &st.t)
			if err != nil {
				st.errs = append(st.errs, fmt.Sprintf("round %d: %v", i+1, err))
				fmt.Fprintf(os.Stderr, "bench: %s round %d: %v\n", w.Name, i+1, err)
				continue
			}
			st.rounds = append(st.rounds, r)
			st.setups = append(st.setups, r.setupS)
		}
	}
	for i := 0; i < cfg.extraSetups; i++ {
		for _, w := range ws {
			st := states[w.Name]
			p, d, err := startDaemon(cfg.apqd, w, cfg.seed)
			if err != nil {
				st.errs = append(st.errs, fmt.Sprintf("extra set-up %d: %v", i+1, err))
				continue
			}
			p.stop()
			st.setups = append(st.setups, d.Seconds())
		}
	}
	load1 := loadAvg1()

	out := map[string]*report{}
	for _, w := range ws {
		st := states[w.Name]
		rep := &report{
			Workload: w.Name, Rounds: len(st.rounds), Errors: st.errs,
			Attempted: st.t.attempted.Load(), Failed: st.t.failed.Load(),
			Layers: map[string]float64{"bench.load1_start": load0, "bench.load1_end": load1},
		}
		var perRound, diag []map[string]float64
		for _, r := range st.rounds {
			perRound = append(perRound, endToEndOf(r))
			diag = append(diag, diagnosticsOf(r))
		}
		var inexact []string
		rep.EndToEnd, inexact = medianOfRounds(perRound)
		rep.Errors = append(rep.Errors, inexact...)
		rep.EndToEnd["setup_s"] = median(st.setups)
		perName := map[string][]float64{}
		for _, d := range diag {
			for name, v := range d {
				perName[name] = append(perName[name], v)
			}
		}
		for name, xs := range perName {
			rep.Layers[name] = median(xs)
		}
		p50s := perName["bench.p50_ms"]
		if m := median(p50s); m > 0 {
			rep.Layers["bench.round_spread"] = (quantile(p50s, 1) - quantile(p50s, 0)) / m
		}
		if rep.Attempted == 0 {
			rep.Attempted = 1 // nothing could be attempted: report it as one failed operation
			rep.Failed = 1
		}
		rep.Correct = rep.Failed == 0 && len(rep.Errors) == 0 && len(st.rounds) == cfg.rounds
		out[w.Name] = rep
	}
	return out
}

// diagnosticsOf is the per-layer view of one end-to-end round: raw client
// milliseconds (not gated — on a shared host they do not repeat within a
// tenth) and the daemon's counters from GET /stats.
func diagnosticsOf(r *roundResult) map[string]float64 {
	m := r.measured
	hot := flatten(m.hot)
	requests := float64(len(hot) + len(flatten(m.serial)))
	d := map[string]float64{
		"bench.p50_ms":                  median(hot),
		"bench.p95_ms":                  quantile(hot, 0.95),
		"bench.p99_ms":                  quantile(hot, 0.99),
		"bench.rps":                     ratio(requests, m.elapsed),
		"bench.serial_p50_ms":           median(flatten(m.serial)),
		"bench.ref_p50_ms":              median(m.ref),
		"bench.cpu_ms_per_req":          ratio(m.daemonCPU*1e3, requests),
		"bench.converge_s":              r.coldSeconds,
		"server.coalesced_requests":     float64(r.stats.CoalescedRequests),
		"server.errors":                 float64(r.stats.Errors),
		"plancache.hits":                float64(r.stats.Cache.Hits),
		"plancache.misses":              float64(r.stats.Cache.Misses),
		"plancache.evictions":           float64(r.stats.Cache.Evictions),
		"plancache.data_reopens":        float64(r.stats.Cache.DataReopens),
		"plancache.reconverge_requests": median(r.write.reconverge),
	}
	var hits, misses, retained, full, derived int64
	for _, sh := range r.stats.PerShard {
		hits += sh.Recycler.BufferHits
		misses += sh.Recycler.BufferMisses
		retained += sh.Recycler.RetainedBytes
		full += sh.Compile.Full
		derived += sh.Compile.Derived
	}
	d["exec.recycler_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	d["exec.retained_mb"] = float64(retained) / 1e6
	d["exec.compile_full"] = float64(full)
	d["exec.compile_derived"] = float64(derived)
	return d
}
