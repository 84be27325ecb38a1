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

// TestHeuristicWorkStealVectorwisePlans: the paper's three static
// configurations are one heuristic plan at three partition counts — the
// machine's cores (heuristic, and the Vectorwise comparator's exchange plan),
// 64 and the work-stealing 128 — and each returns the serial result.
func TestHeuristicWorkStealVectorwisePlans(t *testing.T) {
	db := smallTPCH(t)
	eng := NewEngine(db, TwoSocketMachine())
	q := TPCHQuery(14)
	serialRes, err := eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ k, dop int }{{0, 32}, {64, 64}, {128, 128}} {
		p, err := eng.HeuristicPlan(q, c.k)
		if err != nil {
			t.Fatal(err)
		}
		if p.MaxDOP() != c.dop {
			t.Fatalf("HeuristicPlan(q, %d) DOP = %d, want %d", c.k, p.MaxDOP(), c.dop)
		}
		res, err := eng.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		if !ResultsEqual(serialRes, res) {
			t.Fatalf("HeuristicPlan(q, %d) diverges from serial", c.k)
		}
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
}

func TestTPCHAndTPCDSQueryLists(t *testing.T) {
	if len(TPCHQueryNumbers()) != 9 {
		t.Fatalf("tpch queries = %v", TPCHQueryNumbers())
	}
	if len(TPCDSQueryNumbers()) != 5 {
		t.Fatalf("tpcds queries = %v", TPCDSQueryNumbers())
	}
	db := LoadTPCDS(1, 1)
	eng := NewEngine(db, TwoSocketMachine())
	for _, n := range TPCDSQueryNumbers() {
		if _, err := eng.Execute(TPCDSQuery(n)); err != nil {
			t.Fatalf("TPC-DS Q%d: %v", n, err)
		}
	}
}

func TestNoiseOptionAffectsTiming(t *testing.T) {
	db := smallTPCH(t)
	clean := NewEngine(db, TwoSocketMachine())
	m := TwoSocketMachine()
	m.Noise, m.Seed = DefaultNoise(), 3
	noisy := NewEngine(db, m)
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
	for _, i := range []int{0, -1, 99} { // a column, below range, above range
		if _, err := res.Scalar(i); err == nil {
			t.Fatalf("Scalar(%d) succeeded", i)
		}
	}
	tg := res.Tomograph(60)
	if !strings.Contains(tg, "parallelism usage") {
		t.Fatal("tomograph missing summary")
	}
}

// TestVectorwiseAdmissionPolicy pins the admission-control scheme itself:
// the first client keeps the whole machine, later clients share what
// remains, degrading toward serial execution.
func TestVectorwiseAdmissionPolicy(t *testing.T) {
	cores := 32
	if got := VectorwiseAdmissionMaxCores(0, 8, cores); got != cores {
		t.Fatalf("first client got %d cores, want %d", got, cores)
	}
	if got := VectorwiseAdmissionMaxCores(3, 8, cores); got != cores/8 {
		t.Fatalf("later client got %d cores, want %d", got, cores/8)
	}
	if got := VectorwiseAdmissionMaxCores(5, 64, cores); got != 1 {
		t.Fatalf("overloaded client got %d cores, want 1 (serial floor)", got)
	}
	if got := VectorwiseAdmissionMaxCores(2, 1, cores); got != cores {
		t.Fatalf("sole active client got %d cores, want %d", got, cores)
	}
}
