package exec

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/heuristic"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/tpcds"
	"repro/internal/tpch"
)

// TestEvaluateNeedsNoMachine is the proof that evaluate / account is a seam
// and not a naming convention: for every TPC-H and TPC-DS query, as the serial
// plan and as a statically parallelized one, a job is built, the engine's
// machine is taken away, and evaluate is called once per instruction in plan
// order (plans are topologically ordered). No task is ever accounted, nothing
// virtually completes — and the results, and every instruction's Work, equal
// what Engine.Execute computes through the event core.
//
// Work is compared on every instruction, with the two exceptions that depend
// on the order instructions are evaluated in — plan order here,
// virtual-completion order under the machine. Results never depend on it;
// a caller that evaluates in another order (ROADMAP items 1b / 1c) changes
// exactly these:
//
//   - packs are skipped: a propagated pack group is enabled only if every
//     sibling anchor has been evaluated when its first clone is, so whether a
//     pack reports PackColumnsView's zero movement or the copying fallback's
//     is a property of the order;
//   - a join's build charge (HashBuilds and its share of BytesSeqRead and
//     MemClaimBytes) is compared summed over the plan: the hash index of an
//     intermediate inner is built by whichever of the join clones sharing it
//     is evaluated first, once per run either way.
func TestEvaluateNeedsNoMachine(t *testing.T) {
	suites := []struct {
		name    string
		cat     *storage.Catalog
		numbers []int
		query   func(int) *plan.Plan
	}{
		{"tpch", tpch.Generate(tpch.Config{SF: 0.2, Seed: 7}), tpch.QueryNumbers(), tpch.MustQuery},
		{"tpcds", tpcds.Generate(tpcds.Config{SF: 1, Seed: 7, SkewTheta: 1}), tpcds.QueryNumbers(), tpcds.MustQuery},
	}
	for _, su := range suites {
		for _, qn := range su.numbers {
			serial := su.query(qn)
			parallel, err := heuristic.Parallelize(serial, su.cat, heuristic.Config{Partitions: 8})
			if err != nil {
				t.Fatal(err)
			}
			for _, sh := range []struct {
				name string
				p    *plan.Plan
			}{{"serial", serial}, {"parallel", parallel}} {
				t.Run(fmt.Sprintf("%s/q%d/%s", su.name, qn, sh.name), func(t *testing.T) {
					p := sh.p
					// Both sides start from a cold arena over a catalog whose
					// base-column hash indexes already exist, so a join's
					// HashBuilds does not depend on which side ran first.
					if _, _, err := NewEngine(su.cat, testMachine(), cost.Default()).Execute(p); err != nil {
						t.Fatal(err)
					}
					want, prof, err := NewEngine(su.cat, testMachine(), cost.Default()).Execute(p)
					if err != nil {
						t.Fatal(err)
					}
					wantWork := workByInstr(prof)

					eng := NewEngine(su.cat, testMachine(), cost.Default())
					j, err := eng.newJob(p, JobOptions{})
					if err != nil {
						t.Fatal(err)
					}
					eng.mach, j.simJob = nil, nil // any use of the event core now panics
					var got []Value
					var builds, wantBuilds algebra.Work
					for idx, in := range p.Instrs {
						w, err := j.evaluate(idx)
						if err != nil {
							t.Fatalf("instr %d (%s): %v", idx, in.Op, err)
						}
						ww := wantWork[idx]
						if in.Op == plan.OpJoin {
							builds.Add(splitBuild(&w))
							wantBuilds.Add(splitBuild(&ww))
						}
						if in.Op != plan.OpPack && w != ww {
							t.Errorf("instr %d (%s): Work %+v, through the machine %+v", idx, in.Op, w, ww)
						}
						if in.Op == plan.OpResult {
							for _, a := range in.Args {
								got = append(got, j.env[a])
							}
						}
					}
					if builds != wantBuilds {
						t.Errorf("join build charges sum to %+v, through the machine %+v", builds, wantBuilds)
					}
					if len(got) == 0 || !ResultsEqual(got, want) {
						t.Fatalf("results %v, through the machine %v", got, want)
					}
				})
			}
		}
	}
}

// splitBuild moves the fields of a join's Work that say "this call built the
// inner's hash index" out of w and returns them.
func splitBuild(w *algebra.Work) algebra.Work {
	b := algebra.Work{HashBuilds: w.HashBuilds, BytesSeqRead: w.BytesSeqRead, MemClaimBytes: w.MemClaimBytes}
	w.HashBuilds, w.BytesSeqRead, w.MemClaimBytes = 0, 0, 0
	return b
}
