package experiments

import (
	"fmt"

	"repro/internal/heuristic"
	"repro/internal/sim"
)

// Figure12 reproduces the skewed-select comparison: static 8 partitions on
// 8 threads, static 128 partitions on 8 threads (work-stealing style), and
// dynamically (adaptively) sized partitions, over a column whose second
// half holds sequential clusters of identical (matching) tuples at varying
// skew percentages.
func Figure12(s Scale) (*Table, error) {
	machine := sim.TwoSocket()
	machine.PhysCoresPerSocket = 4 // 8 worker threads total, as in the paper
	machine.SMT = 1
	machine.Seed = s.Seed

	t := &Table{
		Title: "Figure 12: parallel select on skewed data (ms)",
		Headers: []string{"skew%", "static 8 parts/8 thr", "static 128 parts/8 thr (steal)",
			"dynamic (adaptive) 8 thr", "adaptive DOP"},
		Notes: []string{
			"paper: dynamic up to 60% better than static 8; competitive with 128-part stealing",
		},
	}
	for _, skew := range []int{10, 20, 30, 40, 50} {
		cat := makeSkewedColumn(s.MicroRows*2, skew, s.Seed)
		q := selectSumPlan("skewed", "v", 0, 100)

		st8, err := heuristic.Parallelize(q, cat, heuristic.Config{Partitions: 8})
		if err != nil {
			return nil, err
		}
		e1 := newEngine(cat, machine)
		_, p8, err := e1.Execute(st8)
		if err != nil {
			return nil, err
		}

		// The work-stealing configuration is the same static plan at a finer
		// granularity: 128 small partitions on the 8 threads, so threads that
		// finish early pick up the remaining small partitions while threads on
		// skewed ones stay busy [5]. On the discrete-event machine the
		// dataflow scheduler's greedy dispatch of ready partition tasks onto
		// idle cores is list scheduling, which is what a work-stealing runtime
		// converges to for independent equal-priority tasks, so the comparison
		// is about partition granularity versus skew, not steal-queue
		// mechanics (docs/ARCHITECTURE.md §scale).
		ws, err := heuristic.Parallelize(q, cat, heuristic.Config{Partitions: 128})
		if err != nil {
			return nil, err
		}
		e2 := newEngine(cat, machine)
		_, pws, err := e2.Execute(ws)
		if err != nil {
			return nil, err
		}

		e3 := newEngine(cat, machine)
		rep, err := converge(e3, q, s.convConfig())
		if err != nil {
			return nil, err
		}

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", skew),
			ms(p8.Makespan()), ms(pws.Makespan()), ms(rep.GMENs),
			fmt.Sprintf("%d", rep.BestPlan.MaxDOP()),
		})
	}
	return t, nil
}
