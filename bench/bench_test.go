package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/exec"
	"repro/internal/server"
)

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.95); math.Abs(got-4.8) > 1e-9 {
		t.Errorf("p95 = %v, want 4.8", got)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if median(nil) != 0 {
		t.Error("median of nothing should be 0")
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(ten)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread(ten); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := trimmedMean([]float64{100, 1, 2, 3, 4, 5, 6, 0}, 0.25); got != 3.5 {
		t.Errorf("interquartile mean = %v, want 3.5", got)
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Errorf("geomean = %v, want 4", got)
	}
}

func TestMedianOfRounds(t *testing.T) {
	got, inexact := medianOfRounds([]map[string]float64{
		{"p50_rel": 1.0, "converge_requests": 130},
		{"p50_rel": 1.2, "converge_requests": 130},
		{"p50_rel": 5.0, "converge_requests": 130},
	})
	if got["p50_rel"] != 1.2 || got["converge_requests"] != 130 || len(inexact) != 0 {
		t.Errorf("got %v, inexact %v", got, inexact)
	}
	_, inexact = medianOfRounds([]map[string]float64{{"converge_requests": 130}, {"converge_requests": 131}})
	if len(inexact) != 1 {
		t.Errorf("rounds that disagree on an exact metric must be reported, got %v", inexact)
	}
}

// The reads that raced a mutation are a conditioned population of the hot
// reads; the end-to-end value is its median over the phase's reference
// median, not a tail of the whole.
func TestRacedPopulation(t *testing.T) {
	s := &samples{
		hot: [][]float64{{1, 1, 1, 9, 1, 7}}, serial: [][]float64{{2}}, ref: []float64{2, 2, 2}, hotOverRef: []float64{0.5, 0.5, 4.5},
		raced: []float64{9, 7}, appends: []float64{6}, truncates: []float64{2}, daemonCPU: 3, refCPU: 1.5,
	}
	got := endToEndOf(&roundResult{measured: s, write: s, speedups: []float64{4}, coldLat: []float64{3}, coldRef: []float64{2}})
	want := map[string]float64{"p50_rel": 0.5, "wall_speedup": 2, "cpu_rel": 2, "cold_step_rel": 1.5,
		"mutation_rel": 2, "read_during_write_rel": 4, "virtual_speedup": 4}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

// BENCHMARK.json and the harness must name the same workloads and metrics,
// with the same units, directions and bounds.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.Name)
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, harness has %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the harness", len(listed), kind, len(defs))
		}
		for i, d := range defs {
			name(d.Name)
			m := listed[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, harness has %+v", kind, i, m, d)
			}
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q", d.Name, d.Unit)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Bound || d.Bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the harness", d.Name, m.Bound, d.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", d.Name)
			}
		}
	}
	compare("end-to-end", doc.EndToEnd, endToEnd, true)
	compare("per-layer", doc.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// The harness emits every metric it lists, and nothing else.
func TestEveryListedMetricIsEmitted(t *testing.T) {
	s := &samples{hot: [][]float64{{1}}, serial: [][]float64{{1}}, ref: []float64{1}}
	emitted := endToEndOf(&roundResult{measured: s, write: s})
	emitted["setup_s"] = 0
	for _, d := range endToEnd {
		if _, ok := emitted[d.Name]; !ok {
			t.Errorf("end-to-end metric %s is listed but never computed", d.Name)
		}
		delete(emitted, d.Name)
	}
	for k := range emitted {
		t.Errorf("end-to-end metric %s is computed but not listed", k)
	}
	listed := map[string]bool{}
	for _, d := range perLayer {
		listed[d.Name] = true
	}
	for k := range diagnosticsOf(&roundResult{measured: s, write: s}) {
		if !listed[k] {
			t.Errorf("diagnostic %s is computed but not listed", k)
		}
	}
}

// fakeDaemon answers POST /query the way apqd does, from the oracle's own
// dataset, optionally corrupting what it sends.
func fakeDaemon(t *testing.T, o *oracle, q query, wrongSum, truncate bool) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sum, _ := o.expected(q, 0)
		if wrongSum {
			sum++
		}
		doc, err := server.EncodeResult(&server.QueryResponse{Query: q.String(), State: "converged"},
			[]exec.Value{exec.ScalarValue(sum)})
		if err != nil {
			t.Error(err)
		}
		if truncate {
			doc = doc[:len(doc)-5]
		}
		w.Write(doc)
	}))
}

func TestOracleCatchesWrongAndTruncatedReplies(t *testing.T) {
	w := workloadByName("tiny_adapt")
	o := newOracle(w, 7)
	q := w.Hot[0]
	for _, tc := range []struct {
		name              string
		wrongSum, cut, ok bool
	}{{"honest", false, false, true}, {"wrong sum", true, false, false}, {"truncated APQRESULT", false, true, false}} {
		srv := fakeDaemon(t, o, q, tc.wrongSum, tc.cut)
		c := newConn(srv.Listener.Addr().String())
		if _, _, err := c.do(http.MethodPost, "/query", q.body(false, true)); err != nil {
			t.Fatal(err)
		}
		err := o.check(q, c.buf.Bytes(), 0)
		if (err == nil) != tc.ok {
			t.Errorf("%s: check returned %v", tc.name, err)
		}
		c.close()
		srv.Close()
	}
	// The in-tree hook that proves a wrong expectation fails a run.
	o.fault = true
	srv := fakeDaemon(t, o, q, false, false)
	defer srv.Close()
	o.fault = false
	c := newConn(srv.Listener.Addr().String())
	defer c.close()
	if _, _, err := c.do(http.MethodPost, "/query", q.body(false, true)); err != nil {
		t.Fatal(err)
	}
	o.fault = true
	if o.check(q, c.buf.Bytes(), 0) == nil {
		t.Error("a deliberately wrong expectation passed")
	}
}

// The same seed gives the same requests; another seed gives others.
func TestSeedDeterminesRequests(t *testing.T) {
	w := workloadByName("rows_churn")
	a, b, c := newOracle(w, 3), newOracle(w, 3), newOracle(w, 4)
	if string(a.appendBody()) != string(b.appendBody()) {
		t.Error("same seed, different appended rows")
	}
	if string(a.appendBody()) == string(c.appendBody()) {
		t.Error("different seeds, same appended rows")
	}
	sa, _ := a.expected(w.Hot[0], 1)
	sb, _ := b.expected(w.Hot[0], 1)
	if sa != sb {
		t.Error("same seed, different expected values")
	}
	if string(w.Hot[0].body(false, true)) != `{"results":true,"select_rows":{"column":"l_quantity","hi":5,"lo":1,"table":"lineitem"}}` {
		t.Errorf("request body changed: %s", w.Hot[0].body(false, true))
	}
}
