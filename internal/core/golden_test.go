package core_test

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/heuristic"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpcds"
	"repro/internal/tpch"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/mutation_trace.golden from this build")

const goldenPath = "testdata/mutation_trace.golden"

// planBytes is the canonical encoding without its magic+version header, so
// the golden pins the plans (instruction order, variable ids, Parts, aux,
// comments) and not the format version.
func planBytes(p *plan.Plan) []byte { return plan.Encode(p)[5:] }

// TestMutationTraceGolden pins the whole mutation engine: for every TPC-H /
// TPC-DS query the sha-256 over the encoding of every attempt's plan of a
// full convergence (SF 0.5, seed 42, sim.TwoSocket), and of the static
// heuristic plan at 8 and 32 partitions. A refactor of plan / core /
// heuristic must leave every line unchanged; a behaviour change regenerates
// the file with -update and lists the entries that moved.
func TestMutationTraceGolden(t *testing.T) {
	type suite struct {
		name    string
		cat     *storage.Catalog
		numbers []int
		query   func(int) *plan.Plan
	}
	suites := []suite{
		{"tpch", tpch.Generate(tpch.Config{SF: 0.5, Seed: 42}), tpch.QueryNumbers(), tpch.MustQuery},
		{"tpcds", tpcds.Generate(tpcds.Config{SF: 0.5, Seed: 42}), tpcds.QueryNumbers(), tpcds.MustQuery},
	}
	var got []string
	for _, s := range suites {
		for _, n := range s.numbers {
			eng := exec.NewEngine(s.cat, sim.TwoSocket(), cost.Default())
			sess := core.NewSession(eng, s.query(n), core.DefaultMutationConfig(), core.ConvergenceConfig{})
			rep, err := sess.Converge()
			if err != nil {
				t.Fatalf("%s q%d: %v", s.name, n, err)
			}
			h := sha256.New()
			for _, a := range rep.Attempts {
				h.Write(planBytes(a.Plan))
			}
			got = append(got, fmt.Sprintf("%s/q%d adaptive runs=%d %x", s.name, n, len(rep.Attempts), h.Sum(nil)))
			for _, k := range []int{8, 32} {
				hp, err := heuristic.Parallelize(s.query(n), s.cat, heuristic.Config{Partitions: k})
				if err != nil {
					t.Fatalf("%s q%d heuristic k=%d: %v", s.name, n, k, err)
				}
				got = append(got, fmt.Sprintf("%s/q%d heuristic k=%d %x", s.name, n, k, sha256.Sum256(planBytes(hp))))
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d entries, this build produces %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("trace changed:\n  golden %s\n  got    %s", want[i], got[i])
		}
	}
}
