package heuristic

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
)

// The paper's two static comparators are this package's plans under other
// settings: the work-stealing configuration of Figure 12 is Parallelize at
// 128 partitions on 8 threads, the Vectorwise comparator of §4.2.4 is
// Parallelize at the machine's core count priced with cost.Vectorwise. These
// tests pin the behaviour the figures rely on.

// oneColumn is a catalog holding data.v = value(0..n-1).
func oneColumn(n int, value func(i int) int64) *storage.Catalog {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = value(i)
	}
	t := storage.NewTable("data")
	t.MustAddColumn(storage.NewIntColumn("v", vals))
	cat := storage.NewCatalog()
	cat.MustAdd(t)
	return cat
}

// skewCatalog clusters every match of v = 42 in the column's second half.
func skewCatalog(n int) *storage.Catalog {
	return oneColumn(n, func(i int) int64 {
		if i < n/2 {
			return int64(i % 1000)
		}
		return 42
	})
}

func uniformCatalog(n int) *storage.Catalog {
	return oneColumn(n, func(i int) int64 { return int64(i % 997) })
}

func scanSum(pred algebra.Range) *plan.Plan {
	b := plan.NewBuilder()
	v := b.Bind("data", "v")
	b.Result(b.Aggr(algebra.AggrSum, b.Fetch(b.Select(v, pred), v)))
	return b.Plan()
}

func eightThreads() sim.Config {
	return sim.Config{
		Name: "8t", Sockets: 1, PhysCoresPerSocket: 8, SMT: 1, SpeedFactor: 1,
		L3PerSocket: 200 << 10, BWPerSocket: 1e9, SMTFactor: 1, NUMAFactor: 1,
	}
}

func parallelize(t *testing.T, p *plan.Plan, cat *storage.Catalog, partitions int) *plan.Plan {
	t.Helper()
	out, err := Parallelize(p, cat, Config{Partitions: partitions})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runPriced executes p on a fresh engine with the given cost model.
func runPriced(t *testing.T, cat *storage.Catalog, m sim.Config, p *plan.Plan, params cost.Params) ([]exec.Value, float64) {
	t.Helper()
	eng := exec.NewEngine(cat, m, params)
	res, prof, err := eng.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	return res, prof.Makespan()
}

func TestWorkstealPlanShape(t *testing.T) {
	p := parallelize(t, scanSum(algebra.Eq(42)), skewCatalog(100_000), 128)
	if p.MaxDOP() != 128 {
		t.Fatalf("DOP = %d, want 128", p.MaxDOP())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkstealMatchesSerialResults(t *testing.T) {
	cat := skewCatalog(100_000)
	want, _ := runPriced(t, cat, eightThreads(), scanSum(algebra.Eq(42)), cost.Default())
	got, _ := runPriced(t, cat, eightThreads(), parallelize(t, scanSum(algebra.Eq(42)), cat, 128), cost.Default())
	if !exec.ResultsEqual(want, got) {
		t.Fatal("work-stealing plan diverges from serial")
	}
}

func TestManySmallPartitionsBeatFewOnSkew(t *testing.T) {
	// The Figure 12 effect: on skewed data, 128 partitions on 8 threads
	// beat 8 static partitions on 8 threads because early finishers keep
	// working. (Skew here comes from selectivity clustering: the second
	// half of the column produces all the matches, so its partitions write
	// much more output.)
	cat := skewCatalog(400_000)
	_, wsT := runPriced(t, cat, eightThreads(), parallelize(t, scanSum(algebra.Eq(42)), cat, 128), cost.Default())
	_, stT := runPriced(t, cat, eightThreads(), parallelize(t, scanSum(algebra.Eq(42)), cat, 8), cost.Default())
	if wsT >= stT {
		t.Fatalf("128 parts (%.0f) not faster than 8 parts (%.0f) on skewed data", wsT, stT)
	}
}

func TestVectorwisePlanCorrectness(t *testing.T) {
	cat := uniformCatalog(100_000)
	q := scanSum(algebra.Between(100, 600))
	want, _ := runPriced(t, cat, testMachine(), q, cost.Default())
	got, _ := runPriced(t, cat, testMachine(), parallelize(t, q, cat, testMachine().LogicalCores()), cost.Vectorwise())
	if !exec.ResultsEqual(want, got) {
		t.Fatal("Vectorwise plan diverges")
	}
}

func TestExchangeOverheadSlowsPacks(t *testing.T) {
	cat := uniformCatalog(200_000)
	vw := parallelize(t, scanSum(algebra.Between(100, 600)), cat, 16)
	_, vwT := runPriced(t, cat, testMachine(), vw, cost.Vectorwise())
	_, monetT := runPriced(t, cat, testMachine(), vw, cost.Default())
	if vwT <= monetT {
		t.Fatalf("exchange overhead missing: vw=%.0f monet=%.0f", vwT, monetT)
	}
}
