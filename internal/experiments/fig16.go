package experiments

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/heuristic"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// Figure16 compares heuristic parallelization, adaptive parallelization and
// the Vectorwise comparator over the TPC-H subset, both in isolation and
// under a 32-client concurrent workload (§4.2.1–§4.2.4).
func Figure16(s Scale) (*Table, error) {
	cat := tpchCatalog(s.TPCHSF, s.Seed)
	queries := tpch.QueryNumbers()
	cores := sim.TwoSocket().LogicalCores()

	// Prepare the plan sets. The Vectorwise comparator of §4.2.4 (Vectorwise
	// 3.5.1, a pipelined vectorized column store with cost-model-based
	// exchange-operator plans) runs the heuristic's static exchange plans at
	// the machine's logical core count: what the simulation changes is how
	// they are priced (cost.Vectorwise: higher dispatch, and a per-tuple
	// exchange cost on packs, which §4.1.2 cites [30] for) and, under
	// concurrency, the admission-control budgets.
	hpPlans := map[int]*plan.Plan{}
	apPlans := map[int]*plan.Plan{}
	for _, qn := range queries {
		serial := tpch.MustQuery(qn)
		hp, err := heuristic.Parallelize(serial, cat, heuristic.Config{Partitions: cores})
		if err != nil {
			return nil, err
		}
		hpPlans[qn] = hp
		eng := newEngine(cat, sim.TwoSocket())
		rep, err := converge(eng, serial, s.convConfig())
		if err != nil {
			return nil, err
		}
		apPlans[qn] = rep.BestPlan
	}

	t := &Table{
		Title: "Figure 16: TPC-H isolated and concurrent execution (ms)",
		Headers: []string{"query", "HP iso", "AP iso", "VW iso",
			"HP conc", "AP conc", "VW conc"},
		Notes: []string{
			"paper: AP ≈ HP isolated (Q9/Q19 slightly worse), AP clearly best concurrent; VW worst concurrent (admission control)",
			fmt.Sprintf("concurrent = mean latency over %d clients x %d queries", s.Clients, s.Repeats),
		},
	}

	// Isolated executions, each on an engine of its own priced by the system
	// it stands for.
	iso := func(p *plan.Plan, params cost.Params) (float64, error) {
		eng := exec.NewEngine(cat, sim.TwoSocket(), params)
		job, err := eng.Submit(p, exec.JobOptions{})
		if err != nil {
			return 0, err
		}
		eng.Run()
		return job.Profile.Makespan(), nil
	}

	// Concurrent executions: per engine, all clients replay the full mix;
	// report per-query mean latency.
	conc := func(plans map[int]*plan.Plan, vw bool) (map[int]float64, error) {
		params := cost.Default()
		cfg := workload.ClientConfig{Repeats: s.Repeats, Seed: s.Seed}
		idx := map[int]int{}
		for i, qn := range queries {
			cfg.Plans = append(cfg.Plans, plans[qn])
			idx[i] = qn
		}
		if vw {
			params = cost.Vectorwise()
			cfg.MaxCores = func(client, active int) int {
				return exec.AdmissionMaxCores(client, active, cores)
			}
		}
		eng := exec.NewEngine(cat, sim.TwoSocket(), params)
		res, err := workload.RunConcurrent(eng, s.Clients, cfg)
		if err != nil {
			return nil, err
		}
		out := map[int]float64{}
		for pi, st := range res.PerPlan {
			out[idx[pi]] = st.Mean()
		}
		return out, nil
	}

	hpConc, err := conc(hpPlans, false)
	if err != nil {
		return nil, err
	}
	apConc, err := conc(apPlans, false)
	if err != nil {
		return nil, err
	}
	vwConc, err := conc(hpPlans, true)
	if err != nil {
		return nil, err
	}

	fmtConc := func(m map[int]float64, qn int) string {
		if v, ok := m[qn]; ok {
			return ms(v)
		}
		return "-" // query not drawn by the random mix at this seed
	}
	for _, qn := range queries {
		hpIso, err := iso(hpPlans[qn], cost.Default())
		if err != nil {
			return nil, err
		}
		apIso, err := iso(apPlans[qn], cost.Default())
		if err != nil {
			return nil, err
		}
		vwIso, err := iso(hpPlans[qn], cost.Vectorwise())
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("Q%d", qn),
			ms(hpIso), ms(apIso), ms(vwIso),
			fmtConc(hpConc, qn), fmtConc(apConc, qn), fmtConc(vwConc, qn),
		})
	}
	return t, nil
}
