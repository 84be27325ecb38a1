package tpch

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/heuristic"
	"repro/internal/plan"
	"repro/internal/sim"
)

func testMachine() sim.Config {
	return sim.Config{
		Name: "test", Sockets: 2, PhysCoresPerSocket: 4, SMT: 2, SpeedFactor: 1,
		L3PerSocket: 64 << 10, BWPerSocket: 1e9, SMTFactor: 0.55, NUMAFactor: 1.2,
	}
}

var testCat = Generate(Config{SF: 0.5, Seed: 11})

func TestGenerateShapes(t *testing.T) {
	cat := testCat
	li := cat.MustTable("lineitem")
	if li.Rows() != 30_000 {
		t.Fatalf("lineitem rows = %d", li.Rows())
	}
	if cat.MustTable("orders").Rows() != 7_500 {
		t.Fatalf("orders rows = %d", cat.MustTable("orders").Rows())
	}
	// Foreign keys in range.
	nPart := cat.MustTable("part").Rows()
	for _, v := range li.MustColumn("l_partkey").Values() {
		if v < 0 || v >= int64(nPart) {
			t.Fatalf("l_partkey %d out of range", v)
		}
	}
	nOrd := cat.MustTable("orders").Rows()
	for _, v := range li.MustColumn("l_orderkey").Values() {
		if v < 0 || v >= int64(nOrd) {
			t.Fatalf("l_orderkey %d out of range", v)
		}
	}
	// Discount 0..10, quantity 1..50, shipdate after orderdate.
	odate := cat.MustTable("orders").MustColumn("o_orderdate").Values()
	ship := li.MustColumn("l_shipdate").Values()
	okey := li.MustColumn("l_orderkey").Values()
	for i, v := range li.MustColumn("l_discount").Values() {
		if v < 0 || v > 10 {
			t.Fatalf("discount %d", v)
		}
		if ship[i] <= odate[okey[i]] {
			t.Fatalf("shipdate %d not after orderdate %d", ship[i], odate[okey[i]])
		}
	}
	// PROMO parts ~1/6 of part types.
	ptype := cat.MustTable("part").MustColumn("p_type")
	oids, _ := algebra.SelectLikeInto(nil, ptype, "PROMO", algebra.LikePrefix, false)
	frac := float64(len(oids)) / float64(nPart)
	if frac < 0.08 || frac > 0.25 {
		t.Fatalf("PROMO fraction = %f", frac)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{SF: 0.1, Seed: 5})
	b := Generate(Config{SF: 0.1, Seed: 5})
	av := a.MustTable("lineitem").MustColumn("l_extendedprice").Values()
	bv := b.MustTable("lineitem").MustColumn("l_extendedprice").Values()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatal("generation not deterministic")
		}
	}
	c := Generate(Config{SF: 0.1, Seed: 6})
	cv := c.MustTable("lineitem").MustColumn("l_extendedprice").Values()
	same := true
	for i := range av {
		if av[i] != cv[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateDefaultSF(t *testing.T) {
	cat := Generate(Config{Seed: 1})
	if cat.MustTable("lineitem").Rows() != lineitemPerSF {
		t.Fatal("default SF != 1")
	}
}

func TestAllQueriesBuildAndValidate(t *testing.T) {
	for _, n := range QueryNumbers() {
		p, err := Query(n)
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Q%d invalid: %v", n, err)
		}
	}
	if _, err := Query(3); err == nil {
		t.Fatal("unknown query accepted")
	}
	cls := Classification()
	if cls[6] != "simple" || cls[9] != "complex" {
		t.Fatal("classification wrong")
	}
	if len(cls) != len(QueryNumbers()) {
		t.Fatal("classification incomplete")
	}
}

func TestAllQueriesExecuteSerially(t *testing.T) {
	eng := exec.NewEngine(testCat, testMachine(), cost.Default())
	for _, n := range QueryNumbers() {
		res, prof, err := eng.Execute(MustQuery(n))
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		if len(res) == 0 {
			t.Fatalf("Q%d produced no results", n)
		}
		if prof.Makespan() <= 0 {
			t.Fatalf("Q%d zero makespan", n)
		}
	}
}

// Q6 ground truth computed directly.
func TestQ6GroundTruth(t *testing.T) {
	cat := testCat
	li := cat.MustTable("lineitem")
	ship := li.MustColumn("l_shipdate").Values()
	disc := li.MustColumn("l_discount").Values()
	qty := li.MustColumn("l_quantity").Values()
	price := li.MustColumn("l_extendedprice").Values()
	p := Q6Default()
	var want int64
	for i := range ship {
		if ship[i] >= p.ShipLo && ship[i] < p.ShipLo+p.ShipDays &&
			disc[i] >= p.DiscLo && disc[i] <= p.DiscHi && qty[i] < p.QtyBelow {
			want += price[i] * disc[i]
		}
	}
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	res, _, err := eng.Execute(Q6(p))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Scalar != want {
		t.Fatalf("Q6 = %d, want %d", res[0].Scalar, want)
	}
	if want == 0 {
		t.Fatal("degenerate ground truth (no matches)")
	}
}

// Q14 ground truth: promo revenue ratio.
func TestQ14GroundTruth(t *testing.T) {
	cat := testCat
	li := cat.MustTable("lineitem")
	ship := li.MustColumn("l_shipdate").Values()
	lpk := li.MustColumn("l_partkey").Values()
	price := li.MustColumn("l_extendedprice").Values()
	disc := li.MustColumn("l_discount").Values()
	ptype := cat.MustTable("part").MustColumn("p_type")
	var promo, total int64
	for i := range ship {
		if ship[i] >= 1000 && ship[i] < 1030 {
			rev := price[i] * (100 - disc[i])
			total += rev
			if ptype.Data().Dict().MatchPrefix("PROMO")[ptype.At(int(lpk[i]))] {
				promo += rev
			}
		}
	}
	want := int64(0)
	if total != 0 {
		want = 1_000_000 * promo / total
	}
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	res, _, err := eng.Execute(Q14())
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Scalar != want {
		t.Fatalf("Q14 = %d, want %d", res[0].Scalar, want)
	}
	if promo == 0 || total == 0 {
		t.Fatal("degenerate Q14 ground truth")
	}
}

// Q13 ground truth: order-count distribution.
func TestQ13GroundTruth(t *testing.T) {
	cat := testCat
	ord := cat.MustTable("orders")
	comments := ord.MustColumn("o_comment")
	cust := ord.MustColumn("o_custkey").Values()
	member := comments.Dict().MatchSubstring("special")
	perCust := map[int64]int64{}
	var order []int64
	for i, c := range cust {
		if member[comments.At(i)] {
			continue
		}
		if _, seen := perCust[c]; !seen {
			order = append(order, c)
		}
		perCust[c]++
	}
	dist := map[int64]int64{}
	for _, c := range order {
		dist[perCust[c]]++
	}
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	res, _, err := eng.Execute(Q13())
	if err != nil {
		t.Fatal(err)
	}
	keys, counts := res[0].Col, res[1].Col
	if keys.Len() != len(dist) {
		t.Fatalf("distribution size %d, want %d", keys.Len(), len(dist))
	}
	for i := 0; i < keys.Len(); i++ {
		if counts.At(i) != dist[keys.At(i)] {
			t.Fatalf("dist[%d] = %d, want %d", keys.At(i), counts.At(i), dist[keys.At(i)])
		}
	}
}

// Every query: heuristic parallelization must match serial results (full
// engine-level equivalence across all nine plans).
func TestQueriesHeuristicEquivalence(t *testing.T) {
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
			t.Fatalf("Q%d: HP results diverge", n)
		}
	}
}

// Every query: a few adaptive mutation steps must preserve results.
func TestQueriesAdaptiveEquivalence(t *testing.T) {
	for _, n := range QueryNumbers() {
		eng := exec.NewEngine(testCat, testMachine(), cost.Default())
		s := core.NewSession(eng, MustQuery(n), core.DefaultMutationConfig(),
			core.DefaultConvergenceConfig(4))
		s.VerifyResults = true
		for i := 0; i < 8; i++ {
			cont, err := s.Step()
			if err != nil {
				t.Fatalf("Q%d step %d: %v", n, i, err)
			}
			if !cont {
				break
			}
		}
	}
}

// Every query: every plan a full convergence reaches — not only the first
// few mutations — returns the serial plan's result. The first unsound
// mutation PR 19 fixed (a row-id consumer propagated over packs whose inputs
// have no common row space) only fired between runs 10 and 50.
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

func TestQ6SelectivityKnob(t *testing.T) {
	eng := exec.NewEngine(testCat, testMachine(), cost.Default())
	loSel := Q6Params{ShipLo: 0, ShipDays: 2556, DiscLo: 0, DiscHi: 10, QtyBelow: 100}
	hiSel := Q6Params{ShipLo: 0, ShipDays: 2556, DiscLo: 0, DiscHi: 10, QtyBelow: -1}
	resLo, _, err := eng.Execute(Q6(loSel))
	if err != nil {
		t.Fatal(err)
	}
	resHi, _, err := eng.Execute(Q6(hiSel))
	if err != nil {
		t.Fatal(err)
	}
	if resLo[0].Scalar == 0 {
		t.Fatal("0%% selectivity variant returned nothing")
	}
	if resHi[0].Scalar != 0 {
		t.Fatal("100%% selectivity variant returned rows")
	}
	if plan.KindScalar != resLo[0].Kind {
		t.Fatal("Q6 result not scalar")
	}
}
