// Package worksteal builds the work-stealing-style configuration the paper
// compares against in Figure 12: a statically partitioned plan with many
// more partitions than worker threads (128 partitions on 8 threads), so
// that threads finishing early pick up remaining partitions while threads
// on skewed partitions stay busy [5].
//
// On the discrete-event machine, the dataflow scheduler's greedy dispatch of
// ready partition tasks onto idle cores is exactly list scheduling, which is
// what a work-stealing runtime converges to for independent equal-priority
// tasks; the comparison in Figure 12 is about partition granularity versus
// skew, not steal-queue mechanics (see docs/ARCHITECTURE.md
// §scale).
package worksteal

import (
	"repro/internal/heuristic"
	"repro/internal/plan"
	"repro/internal/storage"
)

// DefaultPartitions is the paper's configuration: 128 small partitions.
const DefaultPartitions = 128

// Plan statically over-partitions p for work-stealing execution.
func Plan(p *plan.Plan, cat *storage.Catalog, partitions int) (*plan.Plan, error) {
	if partitions <= 0 {
		partitions = DefaultPartitions
	}
	return heuristic.Parallelize(p, cat, heuristic.Config{Partitions: partitions})
}
