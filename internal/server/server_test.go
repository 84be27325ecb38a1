package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/sim"
	"repro/internal/tpch"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if len(cfg.Engines) == 0 {
		cat := tpch.Generate(tpch.Config{SF: 0.5, Seed: 42})
		cfg.Engines = []*exec.Engine{exec.NewEngine(cat, sim.TwoSocket(), cost.Default())}
	}
	if cfg.DBIdentity == "" {
		cfg.DBIdentity = "tpch:sf=0.5:seed=42"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postQuery(t *testing.T, url string, req QueryRequest) (QueryResponse, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return qr, resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestServeConcurrentConvergence is the subsystem's acceptance test: a
// loopback server takes the same query from many concurrent clients plus a
// mix of distinct queries, serves everything under admission control
// (exercised under -race in CI), and the repeated query's latency improves
// across invocations through the shared plan-cache session, with the
// convergence trace visible at /sessions/{id}/trace.
func TestServeConcurrentConvergence(t *testing.T) {
	s, ts := newTestServer(t, Config{Benchmark: "tpch", Admission: true})

	// Gate the first wave of requests so at least 4 hold admission slots
	// simultaneously — on a single-CPU machine natural overlap is not
	// guaranteed even with 12 client goroutines in flight.
	var admitted atomic.Int32
	release := make(chan struct{})
	s.admitHook = func() {
		if admitted.Add(1) == 4 {
			close(release)
		}
		<-release
	}

	// Phase 1: concurrent clients. 8 hammer q6; 4 issue distinct queries.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var q6Sessions []string
	var cappedCores atomic.Int32
	errs := make(chan error, 64)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				qr, code := postQuery(t, ts.URL, QueryRequest{Query: 6})
				if code != http.StatusOK {
					errs <- fmt.Errorf("q6: status %d", code)
					return
				}
				mu.Lock()
				q6Sessions = append(q6Sessions, qr.Session)
				mu.Unlock()
				if qr.MaxCores > 0 && qr.MaxCores < 32 {
					cappedCores.Add(1)
				}
			}
		}()
	}
	distinct := []int{4, 14, 19, 22}
	for c, n := range distinct {
		wg.Add(1)
		go func(c, n int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, code := postQuery(t, ts.URL, QueryRequest{Query: n}); code != http.StatusOK {
					errs <- fmt.Errorf("q%d: status %d", n, code)
					return
				}
			}
		}(c, n)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(q6Sessions) != 40 {
		t.Fatalf("expected 40 q6 responses, got %d", len(q6Sessions))
	}
	for _, id := range q6Sessions {
		if id != q6Sessions[0] {
			t.Fatalf("q6 requests split across sessions %q and %q — cache not shared", q6Sessions[0], id)
		}
	}

	if cappedCores.Load() == 0 {
		t.Fatal("admission control never capped a concurrent client's cores")
	}

	// Phase 2: keep re-submitting q6 until its shared session converges.
	s.admitHook = nil
	var last QueryResponse
	for i := 0; i < 400; i++ {
		qr, code := postQuery(t, ts.URL, QueryRequest{Query: 6})
		if code != http.StatusOK {
			t.Fatalf("status %d at sequential request %d", code, i)
		}
		if !qr.CacheHit {
			t.Fatalf("sequential request %d missed the cache", i)
		}
		last = qr
		if qr.State == "converged" {
			break
		}
	}
	if last.State != "converged" {
		t.Fatalf("q6 session never converged; last state %q at run %d", last.State, last.Run)
	}
	if last.BestLatencyNs >= last.SerialLatencyNs {
		t.Fatalf("no improvement: best %.0fns vs serial %.0fns", last.BestLatencyNs, last.SerialLatencyNs)
	}
	if last.Speedup <= 1 {
		t.Fatalf("speedup %.2f not > 1", last.Speedup)
	}

	// The convergence trace is visible and consistent.
	var trace TraceResponse
	if code := getJSON(t, ts.URL+"/sessions/"+last.Session+"/trace", &trace); code != http.StatusOK {
		t.Fatalf("trace status %d", code)
	}
	if trace.State != "converged" || len(trace.History) != trace.Runs {
		t.Fatalf("bad trace: state %q, %d history entries for %d runs", trace.State, len(trace.History), trace.Runs)
	}
	if trace.History[trace.GMERun] != trace.BestNs {
		t.Fatalf("history[%d] = %.0f != best %.0f", trace.GMERun, trace.History[trace.GMERun], trace.BestNs)
	}
	if trace.BestNs >= trace.History[0] {
		t.Fatalf("trace shows no improvement: best %.0f vs serial %.0f", trace.BestNs, trace.History[0])
	}
	if len(trace.Invocations) < trace.Runs {
		t.Fatalf("%d invocations < %d runs", len(trace.Invocations), trace.Runs)
	}

	// The session list covers the repeated query and all distinct ones.
	var sessions []SessionInfo
	if code := getJSON(t, ts.URL+"/sessions", &sessions); code != http.StatusOK {
		t.Fatalf("sessions status %d", code)
	}
	if len(sessions) != 1+len(distinct) {
		t.Fatalf("expected %d sessions, got %d", 1+len(distinct), len(sessions))
	}

	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.Cache.Entries != 1+len(distinct) || stats.Cache.Misses != int64(1+len(distinct)) {
		t.Fatalf("unexpected cache stats: %+v", stats.Cache)
	}
	if stats.PeakClients < 4 {
		t.Fatalf("admission never saw the gated concurrency (peak %d, want >= 4)", stats.PeakClients)
	}
	if stats.QueryRequests < 52 {
		t.Fatalf("query_requests %d too low", stats.QueryRequests)
	}

	var health HealthResponse
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || !health.OK {
		t.Fatalf("healthz: code %d, body %+v", code, health)
	}
}

func TestSerialModeBypassesCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Benchmark: "tpch"})
	qr, code := postQuery(t, ts.URL, QueryRequest{Query: 6, Mode: "serial"})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if qr.State != "serial" || qr.Session != "" || qr.Run != -1 || qr.DOP != 1 {
		t.Fatalf("unexpected serial response: %+v", qr)
	}
	var sessions []SessionInfo
	getJSON(t, ts.URL+"/sessions", &sessions)
	if len(sessions) != 0 {
		t.Fatalf("serial mode created a session: %+v", sessions)
	}
}

func TestSelectSumSpecQueries(t *testing.T) {
	_, ts := newTestServer(t, Config{Benchmark: "tpch"})
	lo, hi := int64(10), int64(500)
	spec := &SelectSumSpec{Table: "lineitem", Column: "l_quantity", Lo: &lo, Hi: &hi}
	first, code := postQuery(t, ts.URL, QueryRequest{SelectSum: spec})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if first.CacheHit {
		t.Fatal("first spec query cannot be a cache hit")
	}
	again, _ := postQuery(t, ts.URL, QueryRequest{SelectSum: spec})
	if !again.CacheHit || again.Session != first.Session {
		t.Fatalf("same spec did not share the session: %+v vs %+v", first, again)
	}
	// A different predicate is a different fingerprint.
	hi2 := int64(400)
	other, _ := postQuery(t, ts.URL, QueryRequest{SelectSum: &SelectSumSpec{
		Table: "lineitem", Column: "l_quantity", Lo: &lo, Hi: &hi2,
	}})
	if other.Session == first.Session {
		t.Fatal("different spec reused the session")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Benchmark: "tpch"})
	cases := []struct {
		name string
		req  QueryRequest
	}{
		{"unimplemented query", QueryRequest{Query: 3}},
		{"missing query", QueryRequest{}},
		{"wrong benchmark", QueryRequest{Benchmark: "tpcds", Query: 1}},
		{"bad mode", QueryRequest{Query: 6, Mode: "warp"}},
		{"both query and spec", QueryRequest{Query: 6, SelectSum: &SelectSumSpec{Table: "t", Column: "c"}}},
		{"spec missing column", QueryRequest{SelectSum: &SelectSumSpec{Table: "lineitem"}}},
		{"spec unknown table", QueryRequest{SelectSum: &SelectSumSpec{Table: "nope", Column: "c"}}},
		{"spec unknown column", QueryRequest{SelectSum: &SelectSumSpec{Table: "lineitem", Column: "nope"}}},
		{"spec wrong benchmark", QueryRequest{Benchmark: "tpcds", SelectSum: &SelectSumSpec{Table: "lineitem", Column: "l_quantity"}}},
	}
	for _, tc := range cases {
		if _, code := postQuery(t, ts.URL, tc.req); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: status %d, want 405", resp.StatusCode)
	}
	var tr TraceResponse
	if code := getJSON(t, ts.URL+"/sessions/nope/trace", &tr); code != http.StatusNotFound {
		t.Errorf("unknown session trace: status %d, want 404", code)
	}
}

func TestCloseRejectsRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Benchmark: "tpch"})
	if _, code := postQuery(t, ts.URL, QueryRequest{Query: 6}); code != http.StatusOK {
		t.Fatalf("pre-close status %d", code)
	}
	s.Close()
	if _, code := postQuery(t, ts.URL, QueryRequest{Query: 6}); code != http.StatusServiceUnavailable {
		t.Fatalf("post-close status %d, want 503", code)
	}
	// A closed server must not look healthy to load balancers.
	var health HealthResponse
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusServiceUnavailable || health.OK {
		t.Fatalf("post-close healthz status %d (ok=%v), want 503", code, health.OK)
	}
	s.Close() // idempotent
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without an engine must fail")
	}
	cat := tpch.Generate(tpch.Config{SF: 0.1, Seed: 42})
	eng := exec.NewEngine(cat, sim.TwoSocket(), cost.Default())
	if _, err := New(Config{Engines: []*exec.Engine{eng}, Benchmark: "TPCH"}); err == nil {
		t.Fatal("New must reject an unknown benchmark at startup, not per request")
	}
}

func TestAdmissionSlots(t *testing.T) {
	var a admissionSlots
	i0, n0 := a.acquire()
	if i0 != 0 || n0 != 1 {
		t.Fatalf("first acquire: slot %d active %d", i0, n0)
	}
	i1, n1 := a.acquire()
	if i1 != 1 || n1 != 2 {
		t.Fatalf("second acquire: slot %d active %d", i1, n1)
	}
	a.release(i0)
	i2, n2 := a.acquire()
	if i2 != 0 || n2 != 2 {
		t.Fatalf("reacquire: slot %d active %d (lowest free slot must be reused)", i2, n2)
	}
	if a.peakActive() != 2 {
		t.Fatalf("peak %d", a.peakActive())
	}
}
