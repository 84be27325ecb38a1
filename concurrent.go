package apq

import (
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/workload"
)

// Stats are latency statistics over virtual-time samples.
type Stats = workload.Stats

// ConcurrentResult aggregates a concurrent replay.
type ConcurrentResult = workload.ConcurrentResult

// ConcurrentOptions configures RunConcurrent.
type ConcurrentOptions struct {
	// Repeats is how many queries each client issues (default 1).
	Repeats int
	// Seed drives each client's query-mix choice.
	Seed int64
	// Vectorwise runs the mix under the comparator's cost calibration and
	// admission-control scheme (§4.2.4).
	Vectorwise bool
}

// RunConcurrent replays the query mix with the given number of concurrent
// clients, each issuing its next query as soon as the previous completes —
// the paper's concurrent-workload setup (§4.2.3).
func (e *Engine) RunConcurrent(clients int, mix []*Query, opts ConcurrentOptions) (*ConcurrentResult, error) {
	cfg := workload.ClientConfig{Repeats: opts.Repeats, Seed: opts.Seed}
	for _, q := range mix {
		cfg.Plans = append(cfg.Plans, q.p)
	}
	if opts.Vectorwise {
		params := cost.Vectorwise()
		cfg.CostParams = &params
		cores := e.Machine().LogicalCores()
		cfg.MaxCores = func(client, active int) int {
			return exec.AdmissionMaxCores(client, active, cores)
		}
	}
	return workload.RunConcurrent(e.inner, clients, cfg)
}

// SaturateCores floods the machine with CPU-bound background tasks until
// the virtual deadline — Figure 1's "0% CPU core idleness" condition.
// Subsequent Execute calls compete with the load.
func (e *Engine) SaturateCores(width int, taskNs, untilNs float64) {
	if width <= 0 {
		width = e.Machine().LogicalCores()
	}
	workload.SaturateCores(e.inner.Machine(), width, taskNs, untilNs)
}

// NowNs returns the engine's current virtual time.
func (e *Engine) NowNs() float64 { return e.inner.Machine().Now() }

// DefaultCostParams returns the MonetDB-style cost calibration.
func DefaultCostParams() cost.Params { return cost.Default() }

// VectorwiseCostParams returns the comparator calibration.
func VectorwiseCostParams() cost.Params { return cost.Vectorwise() }
