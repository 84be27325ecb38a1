package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/sim"
	"repro/internal/tpch"
)

func newBenchServer(tb testing.TB) *Server {
	tb.Helper()
	cat := tpch.Generate(tpch.Config{SF: 0.5, Seed: 42})
	s, err := New(Config{
		Engines:    []*exec.Engine{exec.NewEngine(cat, sim.TwoSocket(), cost.Default())},
		DBIdentity: "tpch:sf=0.5:seed=42",
		Benchmark:  "tpch",
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	return s
}

func serveOnce(tb testing.TB, s *Server, body []byte) QueryResponse {
	tb.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var qr QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		tb.Fatal(err)
	}
	return qr
}

// convergeQuery drives one query body until its plan-cache session reports
// convergence, so hot-path measurements serve the learned plan only.
func convergeQuery(tb testing.TB, s *Server, body []byte) {
	tb.Helper()
	for i := 0; i < 600; i++ {
		if serveOnce(tb, s, body).State == "converged" {
			return
		}
	}
	tb.Fatal("warmup never converged")
}

// BenchmarkServeHotRepeated measures serving a query whose plan-cache
// session has already converged: every request executes the learned
// global-minimum plan. The custom metric is the served query's virtual
// latency — the quantity that improves with caching; allocs/op is the
// hot-path allocation budget the zero-copy exchange and pooled HTTP buffers
// gutted.
func BenchmarkServeHotRepeated(b *testing.B) {
	s := newBenchServer(b)
	body := []byte(`{"query":6}`)
	convergeQuery(b, s, body)
	b.ReportAllocs()
	b.ResetTimer()
	var virt float64
	for i := 0; i < b.N; i++ {
		qr := serveOnce(b, s, body)
		virt += qr.LatencyNs
	}
	b.ReportMetric(virt/float64(b.N), "virtual-ns/query")
}

// BenchmarkServeHot is the acceptance benchmark for the zero-copy exchange:
// the §4.1 select_sum micro-benchmark served through a converged session —
// the workload ISSUE 3 requires to drop ≥50% in allocs/op versus the seed
// (131 engine allocations plus HTTP framing per request at this shape).
func BenchmarkServeHot(b *testing.B) {
	s := newBenchServer(b)
	body := []byte(`{"select_sum":{"table":"lineitem","column":"l_quantity","lo":1,"hi":24}}`)
	convergeQuery(b, s, body)
	b.ReportAllocs()
	b.ResetTimer()
	var virt float64
	for i := 0; i < b.N; i++ {
		qr := serveOnce(b, s, body)
		virt += qr.LatencyNs
	}
	b.ReportMetric(virt/float64(b.N), "virtual-ns/query")
}

// BenchmarkServeHotJoin is the join/group counterpart of BenchmarkServeHot:
// TPC-H Q9 (lineitem joined to a LIKE-filtered part intermediate and then to
// supplier, profit grouped per nation) served through a converged session.
// B/op is what the join and group kernels leave to the garbage collector per
// request once their outputs live in arena slots; TestServeHotJoinAllocBudget
// pins it beside allocs/op.
func BenchmarkServeHotJoin(b *testing.B) {
	s := newBenchServer(b)
	body := []byte(`{"query":9}`)
	convergeQuery(b, s, body)
	b.ReportAllocs()
	b.ResetTimer()
	var virt float64
	for i := 0; i < b.N; i++ {
		qr := serveOnce(b, s, body)
		virt += qr.LatencyNs
	}
	b.ReportMetric(virt/float64(b.N), "virtual-ns/query")
}

// BenchmarkServeAdaptiveWarmup is the ISSUE 4 cold path: each iteration
// drives a FRESH query fingerprint through its entire adaptive convergence,
// so every measured request is a converging step — plan mutation,
// compilation, and a first-run execution drawing buffers from the parent's
// arena and the engine recycler. steps/convergence reports how many requests one
// warmup costs; allocs/op is per CONVERGENCE (divide by steps for the
// per-step cold budget TestServeColdAllocBudget enforces).
func BenchmarkServeAdaptiveWarmup(b *testing.B) {
	cat := tpch.Generate(tpch.Config{SF: 0.5, Seed: 42})
	// CacheSize 2 evicts each finished session within two iterations: the
	// (lo,hi) fingerprint space below is finite (320), so an unbounded
	// cache would silently serve CONVERGED sessions once b.N exceeds it —
	// eviction guarantees every iteration converges from scratch (and
	// exercises the production eviction→Release→recycle path for free).
	s, err := New(Config{
		Engines:    []*exec.Engine{exec.NewEngine(cat, sim.TwoSocket(), cost.Default())},
		DBIdentity: "tpch:sf=0.5:seed=42",
		Benchmark:  "tpch",
		CacheSize:  2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	// Warm the shard (pool, schedules, HTTP buffers) with one convergence.
	convergeQuery(b, s, []byte(`{"select_sum":{"table":"lineitem","column":"l_quantity","lo":2,"hi":3}}`))
	b.ReportAllocs()
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		// Distinct (lo,hi) per iteration = distinct fingerprint = fresh
		// adaptive session.
		lo := 1 + i%40
		hi := lo + 2 + (i/40)%8
		body := []byte(fmt.Sprintf(`{"select_sum":{"table":"lineitem","column":"l_quantity","lo":%d,"hi":%d}}`, lo, hi))
		for r := 0; r < 600; r++ {
			steps++
			if serveOnce(b, s, body).State == "converged" {
				break
			}
		}
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/convergence")
}

// BenchmarkAppendBody decodes the benchmark writer's two append bodies —
// 600 rows of lineitem at SF 1 (ten int columns, one one-byte string) and of
// part at SF 0.5 (four int columns, four string columns) — with decodeAppend
// and, beside it, with the encoding/json it replaced.
func BenchmarkAppendBody(b *testing.B) {
	for _, body := range []struct {
		table string
		sf    float64
	}{{"lineitem", 1}, {"part", 0.5}} {
		data := writerAppendBody(b, tpch.Generate(tpch.Config{SF: body.sf, Seed: 42}), body.table, 600, 42)
		for _, dec := range []struct {
			name   string
			decode func([]byte, *appendRequest) error
		}{
			{"decodeAppend", decodeAppend},
			{"json", func(data []byte, req *appendRequest) error { return json.Unmarshal(data, req) }},
		} {
			b.Run(body.table+"/"+dec.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(data)))
				for i := 0; i < b.N; i++ {
					var req appendRequest
					if err := dec.decode(data, &req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkQueryBody decodes the benchmark's tiny_adapt /query bodies — the
// converged select_sum and its serial twin, as the harness marshals them —
// with decodeQuery and, beside it, with the encoding/json it replaced.
func BenchmarkQueryBody(b *testing.B) {
	for _, body := range []struct{ name, data string }{
		{"hot", `{"select_sum":{"column":"p_size","hi":15,"lo":10,"table":"part"}}`},
		{"serial", `{"mode":"serial","select_sum":{"column":"p_size","hi":15,"lo":10,"table":"part"}}`},
	} {
		for _, dec := range []struct {
			name   string
			decode func([]byte, *QueryRequest) error
		}{
			{"decodeQuery", decodeQuery},
			{"json", func(data []byte, req *QueryRequest) error { return json.Unmarshal(data, req) }},
		} {
			b.Run(body.name+"/"+dec.name, func(b *testing.B) {
				data := []byte(body.data)
				b.ReportAllocs()
				b.SetBytes(int64(len(data)))
				for i := 0; i < b.N; i++ {
					var req QueryRequest
					if err := dec.decode(data, &req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkServeColdSerial is the baseline: every request executes the
// serial plan with no cached adaptive state.
func BenchmarkServeColdSerial(b *testing.B) {
	s := newBenchServer(b)
	body := []byte(`{"query":6,"mode":"serial"}`)
	b.ReportAllocs()
	b.ResetTimer()
	var virt float64
	for i := 0; i < b.N; i++ {
		qr := serveOnce(b, s, body)
		virt += qr.LatencyNs
	}
	b.ReportMetric(virt/float64(b.N), "virtual-ns/query")
}
