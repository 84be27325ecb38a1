package workload

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
)

func testMachine() sim.Config {
	return sim.Config{
		Name: "test", Sockets: 2, PhysCoresPerSocket: 4, SMT: 2, SpeedFactor: 1,
		L3PerSocket: 64 << 10, BWPerSocket: 1e9, SMTFactor: 0.55, NUMAFactor: 1.2,
	}
}

func testCat(n int) *storage.Catalog {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 997)
	}
	t := storage.NewTable("data")
	t.MustAddColumn(storage.NewIntColumn("v", vals))
	cat := storage.NewCatalog()
	cat.MustAdd(t)
	return cat
}

func scanPlan(lo, hi int64) *plan.Plan {
	b := plan.NewBuilder()
	v := b.Bind("data", "v")
	s := b.Select(v, algebra.Between(lo, hi))
	f := b.Fetch(s, v)
	sum := b.Aggr(algebra.AggrSum, f)
	b.Result(sum)
	return b.Plan()
}

func TestStats(t *testing.T) {
	var s Stats
	if s.Mean() != 0 || s.Median() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty stats not zero")
	}
	for _, v := range []float64{5, 1, 9, 3, 7} {
		s.Add(v)
	}
	if s.N() != 5 || s.Mean() != 5 || s.Median() != 5 || s.Min() != 1 || s.Max() != 9 {
		t.Fatalf("stats wrong: n=%d mean=%f med=%f min=%f max=%f",
			s.N(), s.Mean(), s.Median(), s.Min(), s.Max())
	}
	if s.Percentile(100) != 9 {
		t.Fatalf("p100 = %f", s.Percentile(100))
	}
}

func TestSaturateCoresKeepsMachineBusy(t *testing.T) {
	cat := testCat(10_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())

	// Baseline latency on an idle machine.
	idle, _, err := eng.Execute(scanPlan(0, 500))
	if err != nil {
		t.Fatal(err)
	}
	idleLat := idle != nil
	_ = idleLat
	idleMs := func() float64 {
		e := exec.NewEngine(cat, testMachine(), cost.Default())
		_, prof, err := e.Execute(scanPlan(0, 500))
		if err != nil {
			t.Fatal(err)
		}
		return prof.Makespan()
	}()

	// Saturated machine: same query must be slower.
	e2 := exec.NewEngine(cat, testMachine(), cost.Default())
	SaturateCores(e2.Machine(), testMachine().LogicalCores(), 50_000, 1e9)
	_, prof, err := e2.Execute(scanPlan(0, 500))
	if err != nil {
		t.Fatal(err)
	}
	if prof.Makespan() <= idleMs {
		t.Fatalf("load had no effect: loaded %.0f vs idle %.0f", prof.Makespan(), idleMs)
	}
}

func TestSaturateCoresStopsAtDeadline(t *testing.T) {
	cat := testCat(100)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	SaturateCores(eng.Machine(), 4, 10_000, 200_000)
	eng.Machine().Run() // must terminate: load stops resubmitting at 200µs
	if now := eng.Machine().Now(); now < 200_000 || now > 400_000 {
		t.Fatalf("machine drained at %f", now)
	}
}

func TestRunConcurrentCompletesAllQueries(t *testing.T) {
	cat := testCat(50_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	res, err := RunConcurrent(eng, 8, ClientConfig{
		Plans:   []*plan.Plan{scanPlan(0, 300), scanPlan(300, 900)},
		Repeats: 5,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.N() != 40 {
		t.Fatalf("completed %d queries", res.Overall.N())
	}
	if res.MakespanNs <= 0 {
		t.Fatal("no makespan")
	}
	totalPerPlan := 0
	for _, s := range res.PerPlan {
		totalPerPlan += s.N()
	}
	if totalPerPlan != 40 {
		t.Fatalf("per-plan totals = %d", totalPerPlan)
	}
	if len(res.Outcomes) != 40 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
}

// TestRunConcurrentReturnsTheQueryError: a query that fails during the replay
// — whether it is a client's first submission or a re-submission from inside
// another query's completion — must surface as the error itself, not as a
// short completion count, and must not leave its client counted active.
func TestRunConcurrentReturnsTheQueryError(t *testing.T) {
	b := plan.NewBuilder()
	b.Result(b.Aggr(algebra.AggrSum, b.Bind("data", "no_such_column")))
	broken := b.Plan()
	first, later := 0, 0
	for seed := int64(0); seed < 8; seed++ {
		eng := exec.NewEngine(testCat(10_000), testMachine(), cost.Default())
		res, err := RunConcurrent(eng, 2, ClientConfig{
			Plans: []*plan.Plan{scanPlan(0, 300), broken}, Repeats: 6, Seed: seed,
		})
		if err == nil || !strings.Contains(err.Error(), "no_such_column") {
			t.Fatalf("seed %d: err = %v (res %v), want the missing column named", seed, err, res)
		}
		if eng.Machine().Now() == 0 {
			first++ // both clients drew the broken plan first: nothing ever ran
		} else {
			later++
		}
	}
	if later == 0 {
		t.Fatalf("no seed failed mid-replay (%d failed at the first submission)", first)
	}
}

func TestRunConcurrentContentionSlowsQueries(t *testing.T) {
	cat := testCat(50_000)
	solo := func() float64 {
		eng := exec.NewEngine(cat, testMachine(), cost.Default())
		res, err := RunConcurrent(eng, 1, ClientConfig{
			Plans: []*plan.Plan{scanPlan(0, 300)}, Repeats: 3, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Overall.Mean()
	}()
	crowded := func() float64 {
		eng := exec.NewEngine(cat, testMachine(), cost.Default())
		res, err := RunConcurrent(eng, 16, ClientConfig{
			Plans: []*plan.Plan{scanPlan(0, 300)}, Repeats: 3, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Overall.Mean()
	}()
	if crowded <= solo {
		t.Fatalf("no contention: crowded %.0f vs solo %.0f", crowded, solo)
	}
}

func TestRunConcurrentAdmissionControl(t *testing.T) {
	cat := testCat(50_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	calls := 0
	res, err := RunConcurrent(eng, 4, ClientConfig{
		Plans:   []*plan.Plan{scanPlan(0, 500)},
		Repeats: 2,
		MaxCores: func(client, active int) int {
			calls++
			if client == 0 {
				return 0
			}
			return 1
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 8 {
		t.Fatalf("admission callback called %d times", calls)
	}
	if res.Overall.N() != 8 {
		t.Fatalf("completed %d", res.Overall.N())
	}
}

func TestRunConcurrentValidatesInput(t *testing.T) {
	cat := testCat(100)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	if _, err := RunConcurrent(eng, 2, ClientConfig{}); err == nil {
		t.Fatal("empty plan list accepted")
	}
}
