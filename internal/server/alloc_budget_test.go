package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/tpch"
)

// newBudgetServer is a STORE-BACKED bench server: both alloc budgets are
// enforced with persistence enabled, pinning the ISSUE 6 guarantee that the
// write-behind hook costs the converged hot path zero allocations (Persist
// fires only on the convergence done-transition and on converged eviction,
// never on a hot serve).
func newBudgetServer(t *testing.T) *Server {
	t.Helper()
	cat := tpch.Generate(tpch.Config{SF: 0.5, Seed: 42})
	st, err := store.Open(filepath.Join(t.TempDir(), "conv.apqs"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Engines:    []*exec.Engine{exec.NewEngine(cat, sim.TwoSocket(), cost.Default())},
		DBIdentity: "tpch:sf=0.5:seed=42",
		Benchmark:  "tpch",
		Store:      st,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		st.Close()
	})
	return s
}

type allocBaseline struct {
	Benchmark        string  `json:"benchmark"`
	MaxAllocsPerOp   float64 `json:"max_allocs_per_op"`
	MeasuredAllocsOp float64 `json:"measured_allocs_per_op"`
	SeedAllocsPerOp  float64 `json:"seed_allocs_per_op"`
	// Cold budget: the CONVERGING serve loop, where every request is an
	// adaptive run that mutates the plan (ISSUE 4's cold path).
	ColdMaxAllocsPerOp float64 `json:"cold_max_allocs_per_op"`
	ColdMeasuredAllocs float64 `json:"cold_measured_allocs_per_op"`
	ColdPR3AllocsPerOp float64 `json:"cold_pr3_allocs_per_op"`
	// Results budget: the converged serve loop answering APQRESULT instead
	// of JSON. The wire encoder stages through a pooled buffer and the
	// metadata is appended to the request's, so it sits below the hot JSON
	// path, whose harness decodes the reply.
	ResultsMaxAllocsPerOp float64 `json:"results_max_allocs_per_op"`
	ResultsMeasuredAllocs float64 `json:"results_measured_allocs_per_op"`
	// Join budget: converged TPC-H Q9 (the BenchmarkServeHotJoin shape), in
	// allocations and in bytes — the join's two oid vectors and the group
	// table are what used to be made per clone per request.
	JoinMaxAllocsPerOp  float64 `json:"join_max_allocs_per_op"`
	JoinMeasuredAllocs  float64 `json:"join_measured_allocs_per_op"`
	JoinPR19AllocsPerOp float64 `json:"join_pr19_allocs_per_op"`
	JoinMaxBytesPerOp   float64 `json:"join_max_bytes_per_op"`
	JoinMeasuredBytes   float64 `json:"join_measured_bytes_per_op"`
	JoinPR19BytesPerOp  float64 `json:"join_pr19_bytes_per_op"`
}

// skipIfPoolsAreLossy skips allocation measurements under the race detector.
// The budgets are measured + ~10 %, and what they measure is what the pools
// (ioBuf, encoding/json, net/http) save; under the detector sync.Pool drops a
// quarter of its Puts on purpose, so the counts there measure the detector.
// Detected by behaviour — a Get/Put round trip on a warm pool allocates only
// when the pool is lossy.
func skipIfPoolsAreLossy(t *testing.T) {
	t.Helper()
	pool := sync.Pool{New: func() any { return new(int) }}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 1000; i++ {
		pool.Put(pool.Get())
	}
	runtime.ReadMemStats(&m1)
	if m1.Mallocs-m0.Mallocs > 100 {
		t.Skip("sync.Pool is lossy in this build (race detector): allocation budgets are exact only without it")
	}
}

func loadAllocBaseline(t *testing.T) allocBaseline {
	t.Helper()
	skipIfPoolsAreLossy(t)
	raw, err := os.ReadFile("testdata/alloc_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base allocBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	return base
}

// TestServeHotAllocBudget is the -benchmem smoke gate: it replays the
// converged select_sum serve loop (the BenchmarkServeHot shape) and fails
// when allocs/op regress past the recorded baseline. The baseline is checked
// in as testdata/alloc_baseline.json so hot-path allocation creep breaks CI,
// not production.
func TestServeHotAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget measured in full (non -short) runs")
	}
	base := loadAllocBaseline(t)
	if base.MaxAllocsPerOp <= 0 {
		t.Fatal("baseline missing max_allocs_per_op")
	}

	s := newBudgetServer(t)
	body := []byte(`{"select_sum":{"table":"lineitem","column":"l_quantity","lo":1,"hi":24}}`)
	convergeQuery(t, s, body)
	// Let the write-behind queue drain so the measured loop races no store
	// I/O; a converged session's serving never enqueues again.
	s.sync.Flush()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serveOnce(b, s, body)
		}
	})
	got := float64(res.AllocsPerOp())
	t.Logf("hot serve loop: %.0f allocs/op (budget %.0f, seed %.0f)", got, base.MaxAllocsPerOp, base.SeedAllocsPerOp)
	if got > base.MaxAllocsPerOp {
		t.Fatalf("hot serve loop allocates %.0f/op, budget is %.0f/op (seed was %.0f/op) — "+
			"either a hot-path allocation regressed or testdata/alloc_baseline.json needs a deliberate bump",
			got, base.MaxAllocsPerOp, base.SeedAllocsPerOp)
	}
}

// TestServeHotJoinAllocBudget is the same gate for a join/group plan: the
// converged TPC-H Q9 serve loop (the BenchmarkServeHotJoin shape) must stay
// within its recorded allocations AND bytes per request. Bytes are the point:
// before PR 20 every join clone made two len(outer) vectors and every group
// clone a Go map per request (566 KB/op); arena-fed join outputs and the
// pooled key table leave the group ids and the result columns.
func TestServeHotJoinAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget measured in full (non -short) runs")
	}
	base := loadAllocBaseline(t)
	if base.JoinMaxAllocsPerOp <= 0 || base.JoinMaxBytesPerOp <= 0 {
		t.Fatal("baseline missing join_max_allocs_per_op / join_max_bytes_per_op")
	}
	s := newBudgetServer(t)
	body := []byte(`{"query":9}`)
	convergeQuery(t, s, body)
	s.sync.Flush()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serveOnce(b, s, body)
		}
	})
	allocs, bytes := float64(res.AllocsPerOp()), float64(res.AllocedBytesPerOp())
	t.Logf("hot join serve loop: %.0f allocs/op, %.0f B/op (budget %.0f / %.0f, PR 19 %.0f / %.0f)",
		allocs, bytes, base.JoinMaxAllocsPerOp, base.JoinMaxBytesPerOp, base.JoinPR19AllocsPerOp, base.JoinPR19BytesPerOp)
	if allocs > base.JoinMaxAllocsPerOp || bytes > base.JoinMaxBytesPerOp {
		t.Fatalf("hot join serve loop allocates %.0f/op and %.0f B/op, budget is %.0f/op and %.0f B/op — "+
			"either a join/group allocation came back or testdata/alloc_baseline.json needs a deliberate bump",
			allocs, bytes, base.JoinMaxAllocsPerOp, base.JoinMaxBytesPerOp)
	}
}

// TestServeResultAllocBudget gates the APQRESULT serving path: a converged
// select_sum served with "results":true must stay within its recorded
// allocation budget. The engine contributes zero additional per-request
// allocations on this path — result values stream straight from the
// published buffers through the pooled wire encoder, behind metadata
// appended to the request's pooled buffer.
func TestServeResultAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget measured in full (non -short) runs")
	}
	base := loadAllocBaseline(t)
	if base.ResultsMaxAllocsPerOp <= 0 {
		t.Fatal("baseline missing results_max_allocs_per_op")
	}
	s := newBudgetServer(t)
	convergeQuery(t, s, []byte(`{"select_sum":{"table":"lineitem","column":"l_quantity","lo":1,"hi":24}}`))
	s.sync.Flush()
	body := []byte(`{"select_sum":{"table":"lineitem","column":"l_quantity","lo":1,"hi":24},"results":true}`)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			if ct := rec.Header().Get("Content-Type"); ct != ResultContentType {
				b.Fatalf("Content-Type %q", ct)
			}
		}
	})
	got := float64(res.AllocsPerOp())
	t.Logf("results serve loop: %.0f allocs/op (budget %.0f)", got, base.ResultsMaxAllocsPerOp)
	if got > base.ResultsMaxAllocsPerOp {
		t.Fatalf("results serve loop allocates %.0f/op, budget is %.0f/op — "+
			"either the wire path regressed or testdata/alloc_baseline.json needs a deliberate bump",
			got, base.ResultsMaxAllocsPerOp)
	}
}

// TestServeColdAllocBudget is the cold-step gate (ISSUE 4): it serves a
// query through its entire CONVERGENCE — every request an adaptive run that
// mutates, recompiles and executes a fresh plan object — and fails when the
// per-step allocation count regresses past the recorded budget (measured
// + ~10 %; the PR 3 baseline of 197/step is where each converging step paid
// full plan cloning, whole-plan compilation and fresh buffer allocation —
// ISSUE 4's acceptance was 2x below that). Malloc counts are
// exact (not GC-dependent), so the measurement is stable.
func TestServeColdAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget measured in full (non -short) runs")
	}
	base := loadAllocBaseline(t)
	if base.ColdMaxAllocsPerOp <= 0 {
		t.Fatal("baseline missing cold_max_allocs_per_op")
	}
	s := newBudgetServer(t)
	// Converge one query first so the engine pool, schedule machinery and
	// HTTP buffers are warm — the steady state of a serving shard. The
	// measured query is a distinct fingerprint: its whole convergence runs
	// on the warm shard.
	convergeQuery(t, s, []byte(`{"select_sum":{"table":"lineitem","column":"l_quantity","lo":2,"hi":3}}`))
	body := []byte(`{"select_sum":{"table":"lineitem","column":"l_quantity","lo":1,"hi":24}}`)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	steps := 0
	for ; steps < 600; steps++ {
		if serveOnce(t, s, body).State == "converged" {
			break
		}
	}
	runtime.ReadMemStats(&m1)
	if steps < 10 {
		t.Fatalf("query converged after only %d steps; measurement too small", steps)
	}
	got := float64(m1.Mallocs-m0.Mallocs) / float64(steps+1)
	t.Logf("converging serve loop: %.0f allocs/step over %d steps (budget %.0f, PR 3 baseline %.0f)",
		got, steps+1, base.ColdMaxAllocsPerOp, base.ColdPR3AllocsPerOp)
	if got > base.ColdMaxAllocsPerOp {
		t.Fatalf("converging serve loop allocates %.0f/step, budget is %.0f/step (PR 3 sat at %.0f/step) — "+
			"either the cold path regressed or testdata/alloc_baseline.json needs a deliberate bump",
			got, base.ColdMaxAllocsPerOp, base.ColdPR3AllocsPerOp)
	}
}

// TestResolveHitAllocatesNothing: once a request's resolution is cached,
// resolving it again — tenant lookup, cache key, fingerprint-cache hit —
// allocates nothing, for a named query and both spec shapes, on the default
// tenant and on a named one.
func TestResolveHitAllocatesNothing(t *testing.T) {
	skipIfPoolsAreLossy(t)
	cat := tpch.Generate(tpch.Config{SF: 0.01, Seed: 42})
	s, err := New(Config{
		Engines:    []*exec.Engine{exec.NewEngine(cat, sim.TwoSocket(), cost.Default())},
		DBIdentity: "tpch:sf=0.01:seed=42",
		Benchmark:  "tpch",
		Tenants:    []Tenant{{Name: "acme", Catalog: cat}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	lo, hi := int64(10), int64(15)
	for _, req := range []QueryRequest{
		{Query: 6},
		{SelectSum: &SelectSumSpec{Table: "part", Column: "p_size", Lo: &lo, Hi: &hi}},
		{Tenant: "acme", SelectRows: &SelectSumSpec{Table: "part", Column: "p_size", Lo: &lo}},
	} {
		first, derr := s.resolve("", &req)
		if derr != nil {
			t.Fatalf("%+v: %v", req, derr.err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if again, derr := s.resolve("", &req); derr != nil || again.fp != first.fp {
				t.Fatalf("%+v: resolved again to %q, %v; first to %q", req, again.fp, derr, first.fp)
			}
		})
		if allocs != 0 {
			t.Errorf("%+v: a fingerprint-cache hit allocates %.0f times per resolve, want 0", req, allocs)
		}
	}
}
