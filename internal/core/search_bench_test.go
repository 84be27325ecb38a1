package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/tpch"
)

// searchSink keeps the benchmarked search's result alive.
var searchSink *plan.Plan

// searchInput is one (plan, profile) pair a convergence fed the mutator.
type searchInput struct {
	p    *plan.Plan
	prof *exec.Profile
}

// captureSearches converges TPC-H query n and returns every attempt's plan
// with the profile its step searched, split by whether a fresh search mutates
// the plan or returns it unchanged.
func captureSearches(b *testing.B, eng *exec.Engine, n int) (mutate, unchanged []searchInput) {
	s := core.NewSession(eng, tpch.MustQuery(n), core.DefaultMutationConfig(), core.ConvergenceConfig{})
	m := core.NewMutator(core.DefaultMutationConfig())
	for run := 0; !s.Done(); run++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
		a := s.Attempts()[run]
		np, _, err := m.MutateMostExpensive(a.Plan, a.Profile)
		if err != nil {
			b.Fatal(err)
		}
		in := searchInput{a.Plan, a.Profile}
		if np != a.Plan {
			mutate = append(mutate, in)
		} else {
			unchanged = append(unchanged, in)
		}
	}
	return mutate, unchanged
}

// BenchmarkMutationSearch times MutateMostExpensive alone, one search per
// op, over the (plan, profile) pairs of full TPC-H Q4 and Q9 convergences at
// SF 0.1 on sim.TwoSocket: searches that mutate the plan, and searches that
// return it unchanged (suppression, or no applicable operator) — the answer a
// draining session would otherwise compute again on every step.
func BenchmarkMutationSearch(b *testing.B) {
	cat := tpch.Generate(tpch.Config{SF: 0.1, Seed: 42})
	for _, n := range []int{4, 9} {
		eng := exec.NewEngine(cat, sim.TwoSocket(), cost.Default())
		mutate, unchanged := captureSearches(b, eng, n)
		for _, c := range []struct {
			name string
			in   []searchInput
		}{{"mutate", mutate}, {"unchanged", unchanged}} {
			b.Run(fmt.Sprintf("q%d/%s", n, c.name), func(b *testing.B) {
				if len(c.in) == 0 {
					b.Skip("no such search in this convergence")
				}
				m := core.NewMutator(core.DefaultMutationConfig())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					in := c.in[i%len(c.in)]
					np, _, err := m.MutateMostExpensive(in.p, in.prof)
					if err != nil {
						b.Fatal(err)
					}
					searchSink = np
				}
			})
		}
	}
}
