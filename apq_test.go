package apq

import (
	"strings"
	"testing"
)

func smallTPCH(t *testing.T) *DB {
	t.Helper()
	return LoadTPCH(0.25, 7)
}

func TestQuickstartFlow(t *testing.T) {
	db := smallTPCH(t)
	eng := NewEngine(db, TwoSocketMachine())
	q := TPCHQuery(6)
	res, err := eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := res.Scalar(0)
	if err != nil {
		t.Fatal(err)
	}
	if sum <= 0 {
		t.Fatalf("Q6 sum = %d", sum)
	}
	if res.MakespanNs() <= 0 {
		t.Fatal("no makespan")
	}
	if u := res.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization = %f", u)
	}
}

func TestCustomTables(t *testing.T) {
	db := NewDB()
	err := db.AddTable("metrics").
		Int64("value", []int64{10, 20, 30}).
		String("label", []string{"a", "b", "a"}).
		Done()
	if err != nil {
		t.Fatal(err)
	}
	if db.Catalog().MustTable("metrics").Rows() != 3 {
		t.Fatal("rows wrong")
	}
	// Length mismatch surfaces as an error at Done.
	err = db.AddTable("bad").
		Int64("a", []int64{1, 2}).
		Int64("b", []int64{1}).
		Done()
	if err == nil {
		t.Fatal("mismatched columns accepted")
	}
}

func TestAdaptiveSessionConverges(t *testing.T) {
	db := LoadTPCH(2, 3)
	eng := NewEngine(db, TwoSocketMachine())
	sess := eng.NewAdaptiveSession(TPCHQuery(6),
		WithConvergenceConfig(DefaultConvergenceConfig(8)),
		WithResultVerification())
	rep, err := sess.Converge()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Speedup() < 1.5 {
		t.Fatalf("speedup = %.2f", rep.Speedup())
	}
	if !sess.Done() {
		t.Fatal("session not done after Converge")
	}
	if sess.BestQuery().MaxDOP() < 2 {
		t.Fatal("best plan not parallel")
	}
	if len(sess.Attempts()) != rep.TotalRuns {
		t.Fatal("attempts mismatch")
	}
}

func TestHeuristicWorkStealVectorwisePlans(t *testing.T) {
	db := smallTPCH(t)
	eng := NewEngine(db, TwoSocketMachine())
	q := TPCHQuery(14)
	serialRes, err := eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}

	hp, err := eng.HeuristicPlan(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hp.MaxDOP() != 32 {
		t.Fatalf("HP DOP = %d, want machine cores", hp.MaxDOP())
	}
	hpRes, err := eng.Execute(hp)
	if err != nil {
		t.Fatal(err)
	}
	if !ResultsEqual(serialRes, hpRes) {
		t.Fatal("HP diverges")
	}

	ws, err := eng.WorkStealingPlan(q, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ws.MaxDOP() != 64 {
		t.Fatalf("WS DOP = %d", ws.MaxDOP())
	}
	wsRes, err := eng.Execute(ws)
	if err != nil {
		t.Fatal(err)
	}
	if !ResultsEqual(serialRes, wsRes) {
		t.Fatal("WS diverges")
	}
	if def, err := eng.WorkStealingPlan(q, 0); err != nil {
		t.Fatal(err)
	} else if def.MaxDOP() != 128 {
		t.Fatalf("default WS DOP = %d, want the paper's 128 partitions", def.MaxDOP())
	}

	vw, err := eng.VectorwisePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	vwRes, err := eng.ExecuteVectorwise(vw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ResultsEqual(serialRes, vwRes) {
		t.Fatal("VW diverges")
	}
}

func TestQueryIntrospection(t *testing.T) {
	q := TPCHQuery(14)
	if !strings.Contains(q.String(), "likeselect") {
		t.Fatal("plan text missing likeselect")
	}
	if !strings.Contains(q.Dot(), "digraph") {
		t.Fatal("dot output missing digraph")
	}
	st := q.Stats()
	if st.Selects == 0 || st.Joins == 0 || st.MaxDOP != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if Serial(q).MaxDOP() != 1 {
		t.Fatal("serial copy not serial")
	}
}

func TestTPCHAndTPCDSQueryLists(t *testing.T) {
	if len(TPCHQueryNumbers()) != 9 {
		t.Fatalf("tpch queries = %v", TPCHQueryNumbers())
	}
	if len(TPCDSQueryNumbers()) != 5 {
		t.Fatalf("tpcds queries = %v", TPCDSQueryNumbers())
	}
	if TPCHClassification()[6] != "simple" {
		t.Fatal("classification wrong")
	}
	db := LoadTPCDS(1, 1)
	eng := NewEngine(db, TwoSocketMachine())
	for _, n := range TPCDSQueryNumbers() {
		if _, err := eng.Execute(TPCDSQuery(n)); err != nil {
			t.Fatalf("TPC-DS Q%d: %v", n, err)
		}
	}
}

func TestQ6ParameterSweep(t *testing.T) {
	db := smallTPCH(t)
	eng := NewEngine(db, TwoSocketMachine())
	p := Q6Params{ShipLo: 0, ShipDays: 2556, DiscLo: 0, DiscHi: 10, QtyBelow: 100}
	res, err := eng.Execute(TPCHQ6(p))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Scalar(0)
	if v == 0 {
		t.Fatal("full-range Q6 returned zero")
	}
}

func TestRunConcurrentOnEngine(t *testing.T) {
	db := smallTPCH(t)
	eng := NewEngine(db, TwoSocketMachine())
	mix := []*Query{TPCHQuery(6), TPCHQuery(14)}
	res, err := eng.RunConcurrent(4, mix, ConcurrentOptions{Repeats: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.N() != 8 {
		t.Fatalf("completed %d", res.Overall.N())
	}
}

func TestVectorwiseConcurrentAdmission(t *testing.T) {
	db := smallTPCH(t)
	eng := NewEngine(db, TwoSocketMachine())
	q, err := eng.VectorwisePlan(TPCHQuery(6))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunConcurrent(4, []*Query{q}, ConcurrentOptions{Repeats: 1, Vectorwise: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.N() != 4 {
		t.Fatalf("completed %d", res.Overall.N())
	}
	if VectorwiseAdmissionMaxCores(3, 8, 32) != 4 {
		t.Fatal("admission policy wrong")
	}
}

func TestSaturateCoresSlowsQueries(t *testing.T) {
	db := smallTPCH(t)
	idle := NewEngine(db, TwoSocketMachine())
	idleRes, err := idle.Execute(TPCHQuery(6))
	if err != nil {
		t.Fatal(err)
	}
	loaded := NewEngine(db, TwoSocketMachine())
	loaded.SaturateCores(0, 50_000, 1e10)
	loadedRes, err := loaded.Execute(TPCHQuery(6))
	if err != nil {
		t.Fatal(err)
	}
	if loadedRes.MakespanNs() <= idleRes.MakespanNs() {
		t.Fatal("background load had no effect")
	}
	if loaded.NowNs() <= 0 {
		t.Fatal("clock did not advance")
	}
}

func TestNoiseOptionAffectsTiming(t *testing.T) {
	db := smallTPCH(t)
	clean := NewEngine(db, TwoSocketMachine())
	noisy := NewEngine(db, TwoSocketMachine(), WithNoise(DefaultNoise()), WithSeed(3))
	cr, err := clean.Execute(TPCHQuery(6))
	if err != nil {
		t.Fatal(err)
	}
	nr, err := noisy.Execute(TPCHQuery(6))
	if err != nil {
		t.Fatal(err)
	}
	if cr.MakespanNs() == nr.MakespanNs() {
		t.Fatal("noise had no effect")
	}
	if !ResultsEqual(cr, nr) {
		t.Fatal("noise changed results")
	}
}

func TestResultAccessorsErrors(t *testing.T) {
	db := smallTPCH(t)
	eng := NewEngine(db, TwoSocketMachine())
	res, err := eng.Execute(TPCHQuery(9)) // (keys col, sums col)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Scalar(0); err == nil {
		t.Fatal("Scalar on column result succeeded")
	}
	col, err := res.Column(1)
	if err != nil || len(col) == 0 {
		t.Fatalf("Column: %v len %d", err, len(col))
	}
	if _, err := res.Column(99); err == nil {
		t.Fatal("out-of-range column succeeded")
	}
	tg := res.Tomograph(60)
	if !strings.Contains(tg, "parallelism usage") {
		t.Fatal("tomograph missing summary")
	}
}

func TestAdaptiveCacheWorkflow(t *testing.T) {
	db := LoadTPCH(1, 5)
	eng := NewEngine(db, TwoSocketMachine())
	cache := eng.NewAdaptiveCache()
	builds := 0
	builder := func() *Query { builds++; return TPCHQuery(6) }

	var first *Result
	converged := false
	for i := 0; i < 400 && !converged; i++ {
		res, done, err := cache.Execute("q6", builder)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
		} else if !ResultsEqual(first, res) {
			t.Fatalf("invocation %d diverged", i)
		}
		converged = done
	}
	if !converged || !cache.Converged("q6") {
		t.Fatal("cache never converged")
	}
	if builds != 1 {
		t.Fatalf("builder called %d times", builds)
	}
	rep := cache.Report("q6")
	if rep == nil || rep.Speedup() < 1.2 {
		t.Fatalf("report = %+v", rep)
	}
	cache.Evict("q6")
	if cache.Converged("q6") {
		t.Fatal("evict failed")
	}
}

func TestStringColumnRendering(t *testing.T) {
	db := LoadTPCDS(1, 2)
	eng := NewEngine(db, TwoSocketMachine())
	res, err := eng.Execute(TPCDSQuery(1))
	if err != nil {
		t.Fatal(err)
	}
	cats, err := res.StringColumn(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cats) == 0 || cats[0] == "" {
		t.Fatalf("categories = %v", cats)
	}
}
