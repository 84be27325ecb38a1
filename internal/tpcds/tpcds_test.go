package tpcds

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/heuristic"
	"repro/internal/sim"
)

func testMachine() sim.Config {
	return sim.Config{
		Name: "test", Sockets: 2, PhysCoresPerSocket: 4, SMT: 2, SpeedFactor: 1,
		L3PerSocket: 64 << 10, BWPerSocket: 1e9, SMTFactor: 0.55, NUMAFactor: 1.2,
	}
}

var testCat = Generate(Config{SF: 5, Seed: 3})

func TestGenerateShapes(t *testing.T) {
	fact := testCat.MustTable("store_sales")
	if fact.Rows() != 5*factPerSF {
		t.Fatalf("fact rows = %d", fact.Rows())
	}
	nItem := testCat.MustTable("item").Rows()
	for _, v := range fact.MustColumn("ss_item_sk").Values() {
		if v < 0 || v >= int64(nItem) {
			t.Fatalf("ss_item_sk %d out of range", v)
		}
	}
	// Dates are clustered: the column must be non-decreasing (Figure 13's
	// contiguous-cluster shape).
	dates := fact.MustColumn("ss_sold_date_sk").Values()
	for i := 1; i < len(dates); i++ {
		if dates[i] < dates[i-1] {
			t.Fatal("fact dates not clustered")
		}
	}
}

func topShare(items []int64, nItem int) float64 {
	counts := make([]int, nItem)
	for _, v := range items {
		counts[v]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	top := 0
	for i := 0; i < nItem/10; i++ {
		top += counts[i]
	}
	return float64(top) / float64(len(items))
}

func TestItemSkewIsHeavy(t *testing.T) {
	fact := testCat.MustTable("store_sales")
	items := fact.MustColumn("ss_item_sk").Values()
	nItem := testCat.MustTable("item").Rows()
	// The best-selling 10% of items must hold far more than 10% of sales.
	if frac := topShare(items, nItem); frac < 0.3 {
		t.Fatalf("top-10%% items hold only %.2f of sales; skew too weak", frac)
	}
	// Sales are bursty: long runs of identical items (Figure 13 clusters).
	runs := 0
	for i := 1; i < len(items); i++ {
		if items[i] != items[i-1] {
			runs++
		}
	}
	if avgRun := float64(len(items)) / float64(runs+1); avgRun < 20 {
		t.Fatalf("average sales burst length %.1f; expected long clusters", avgRun)
	}
	// The near-uniform variant is much less concentrated.
	uni := Generate(Config{SF: 1, Seed: 3, SkewTheta: 0.0001})
	uitems := uni.MustTable("store_sales").MustColumn("ss_item_sk").Values()
	un := uni.MustTable("item").Rows()
	if f := topShare(uitems, un); f > 0.25 {
		t.Fatalf("uniform variant still skewed: %.2f", f)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{SF: 1, Seed: 9})
	b := Generate(Config{SF: 1, Seed: 9})
	av := a.MustTable("store_sales").MustColumn("ss_ext_sales_price").Values()
	bv := b.MustTable("store_sales").MustColumn("ss_ext_sales_price").Values()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestAllQueriesBuildValidateExecute(t *testing.T) {
	eng := exec.NewEngine(testCat, testMachine(), cost.Default())
	for _, n := range QueryNumbers() {
		p, err := Query(n)
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Q%d invalid: %v", n, err)
		}
		res, prof, err := eng.Execute(p)
		if err != nil {
			t.Fatalf("Q%d execute: %v", n, err)
		}
		if len(res) == 0 || prof.Makespan() <= 0 {
			t.Fatalf("Q%d empty outcome", n)
		}
	}
	if _, err := Query(9); err == nil {
		t.Fatal("unknown query accepted")
	}
}

func TestQ1GroundTruth(t *testing.T) {
	fact := testCat.MustTable("store_sales")
	dates := fact.MustColumn("ss_sold_date_sk").Values()
	items := fact.MustColumn("ss_item_sk").Values()
	price := fact.MustColumn("ss_ext_sales_price").Values()
	cats := testCat.MustTable("item").MustColumn("i_category")
	sums := map[string]int64{}
	for i := range dates {
		if dates[i] >= 365 && dates[i] < 730 {
			sums[cats.Data().StringAt(int(items[i]))] += price[i]
		}
	}
	eng := exec.NewEngine(testCat, testMachine(), cost.Default())
	res, _, err := eng.Execute(Q1())
	if err != nil {
		t.Fatal(err)
	}
	keys, vals := res[0].Col, res[1].Col
	if keys.Len() != len(sums) {
		t.Fatalf("groups = %d, want %d", keys.Len(), len(sums))
	}
	for i := 0; i < keys.Len(); i++ {
		name := keys.Data().StringAt(i)
		if vals.At(i) != sums[name] {
			t.Fatalf("category %q = %d, want %d", name, vals.At(i), sums[name])
		}
	}
}

func TestQueriesHeuristicAndAdaptiveEquivalence(t *testing.T) {
	for _, n := range QueryNumbers() {
		serial := MustQuery(n)
		eng := exec.NewEngine(testCat, testMachine(), cost.Default())
		want, _, err := eng.Execute(serial)
		if err != nil {
			t.Fatalf("Q%d serial: %v", n, err)
		}
		hp, err := heuristic.Parallelize(serial, testCat, heuristic.Config{Partitions: 8})
		if err != nil {
			t.Fatalf("Q%d HP: %v", n, err)
		}
		eng2 := exec.NewEngine(testCat, testMachine(), cost.Default())
		got, _, err := eng2.Execute(hp)
		if err != nil {
			t.Fatalf("Q%d HP exec: %v", n, err)
		}
		if !exec.ResultsEqual(want, got) {
			t.Fatalf("Q%d: HP diverges", n)
		}

		eng3 := exec.NewEngine(testCat, testMachine(), cost.Default())
		s := core.NewSession(eng3, MustQuery(n), core.DefaultMutationConfig(),
			core.DefaultConvergenceConfig(4))
		s.VerifyResults = true
		for i := 0; i < 6; i++ {
			cont, err := s.Step()
			if err != nil {
				t.Fatalf("Q%d AP step %d: %v", n, i, err)
			}
			if !cont {
				break
			}
		}
	}
}

// Every query: every plan a full convergence reaches returns the serial
// plan's result (see the TPC-H twin; here the unsound shape was a pack
// flattened from several sliced families, each tiling its own anchor).
func TestFullConvergencePreservesResults(t *testing.T) {
	for _, sf := range []float64{0.5, 1} {
		cat := Generate(Config{SF: sf, Seed: 42})
		for _, n := range QueryNumbers() {
			eng := exec.NewEngine(cat, sim.TwoSocket(), cost.Default())
			s := core.NewSession(eng, MustQuery(n), core.DefaultMutationConfig(), core.ConvergenceConfig{})
			s.VerifyResults = true
			if _, err := s.Converge(); err != nil {
				t.Errorf("SF %g Q%d: %v", sf, n, err)
			}
		}
	}
}
