// Package exec is the run-time environment of §2: a dataflow-graph scheduler
// ("an operator is scheduled for execution once all its input sources are
// available"), an interpreter executing operators, and a profiler gathering
// per-operator execution time, memory claims and thread affiliation.
// Execution happens on the simulated multi-core machine (internal/sim):
// operator results are computed for real; durations come from the cost
// model.
//
// Ownership invariants. Plans are immutable after submission (mutation
// clones), so each plan object's compilation — validation, dependency
// graph, zero-copy exchange plan — is cached once and reused every run.
// Buffer ownership is strictly layered: values reachable from a plan's
// result instruction escape to callers, are allocated fresh each run, and
// are never pooled or rewritten; every other run-state buffer belongs to
// exactly one layer at a time — the running job (arena checked out at
// Submit), the plan's schedule (idle arena between runs), or the
// engine-level size-classed recycler (after Engine.Retire) — with handoffs
// only at submit, completion, adoption, and retirement.
// Recycled buffers are zero-length-reset, never zeroed: consumers append
// from :0 or fully overwrite, so they carry no data ownership and may serve
// any plan — including plans of other tenants (JobOptions.Catalog swaps
// bind resolution per job; the engine itself is tenant-agnostic). Engines
// are not goroutine-safe: the simulated machine is single-threaded, and
// callers (the server's shard locks) must serialize all executions on one
// engine. Inside one execution, the evaluation pass may be shared with the
// process-wide evaluation helper (helper.go); the run's owner waits for the
// helper to leave before anything after evaluation happens, so the rule
// above still holds for everything outside evaluateAll.
//
// The escape rule above is load-bearing for the serving layer: a published
// result may be shared by many request goroutines at once (single-flight
// coalescing hands one run's values to every waiter) and streamed to
// sockets after the shard lock is released. That is sound only because
// result values are fresh per run and no later Evict, Retire, or recycler
// handoff ever reaches them — any future change to result-buffer lifetime
// must preserve this or teach the coalescer to copy.
package exec

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Value is the runtime value of one plan variable.
type Value struct {
	Kind   plan.Kind
	Col    *storage.Column
	Oids   []int64
	Scalar int64
	Groups *algebra.Groups
}

// ColValue wraps a column.
func ColValue(c *storage.Column) Value { return Value{Kind: plan.KindColumn, Col: c} }

// OidsValue wraps a selection vector.
func OidsValue(o []int64) Value { return Value{Kind: plan.KindOids, Oids: o} }

// ScalarValue wraps a scalar.
func ScalarValue(s int64) Value { return Value{Kind: plan.KindScalar, Scalar: s} }

// GroupsValue wraps a group-by result.
func GroupsValue(g *algebra.Groups) Value { return Value{Kind: plan.KindGroups, Groups: g} }

// Len reports the cardinality of the value where meaningful.
func (v Value) Len() int {
	switch v.Kind {
	case plan.KindColumn:
		return v.Col.Len()
	case plan.KindOids:
		return len(v.Oids)
	case plan.KindGroups:
		return len(v.Groups.GIDs)
	}
	return 1
}

// Equal compares two values structurally; used by result-equivalence tests
// (the central mutation-correctness invariant).
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case plan.KindScalar:
		return v.Scalar == o.Scalar
	case plan.KindOids:
		if len(v.Oids) != len(o.Oids) {
			return false
		}
		for i := range v.Oids {
			if v.Oids[i] != o.Oids[i] {
				return false
			}
		}
		return true
	case plan.KindColumn:
		if v.Col.Len() != o.Col.Len() {
			return false
		}
		for i := 0; i < v.Col.Len(); i++ {
			if v.Col.At(i) != o.Col.At(i) {
				return false
			}
		}
		return true
	case plan.KindGroups:
		if v.Groups.NGroups() != o.Groups.NGroups() || len(v.Groups.GIDs) != len(o.Groups.GIDs) {
			return false
		}
		for i := 0; i < v.Groups.Keys.Len(); i++ {
			if v.Groups.Keys.At(i) != o.Groups.Keys.At(i) {
				return false
			}
		}
		for i := range v.Groups.GIDs {
			if v.Groups.GIDs[i] != o.Groups.GIDs[i] {
				return false
			}
		}
		return true
	}
	return false
}

func (v Value) String() string {
	switch v.Kind {
	case plan.KindScalar:
		return fmt.Sprintf("%d", v.Scalar)
	case plan.KindOids:
		return fmt.Sprintf("oids[%d]", len(v.Oids))
	case plan.KindColumn:
		return fmt.Sprintf("col[%d]", v.Col.Len())
	case plan.KindGroups:
		return fmt.Sprintf("groups[%d]", v.Groups.NGroups())
	}
	return "?"
}

// ResultsEqual compares two result tuples.
func ResultsEqual(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
