package apq_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"

	apq "repro"
)

// Everything below — data generation, the simulated machine, the
// adaptation — is deterministic, so every printed count, DOP and virtual
// speedup is stable. Session ids are not: which tenant's first request
// reaches a shard first decides them, so no example prints one.

// Example demonstrates the core adaptive-parallelization loop: a cached
// query is re-invoked, each invocation parallelizing its most expensive
// operator, until the convergence algorithm halts and the global-minimum
// plan is identified.
func Example() {
	// A TPC-H database at scale factor 2 (≈120k lineitem rows at the
	// library's 1/100 scale) on the paper's 2-socket 32-thread machine.
	db := apq.LoadTPCH(2, 42)
	eng := apq.NewEngine(db, apq.TwoSocketMachine())

	// TPC-H Q6: the paper's "simple" query — a predicate-only lineitem scan
	// with a scalar aggregate.
	q := apq.TPCHQuery(6)
	serial := must(eng.Execute(q))

	sess := eng.NewAdaptiveSession(q, apq.WithResultVerification())
	report := must(sess.Converge())
	best := sess.BestQuery()
	again := must(eng.Execute(best))

	st := best.Stats()
	fmt.Printf("GME at run %d of %d, %.2fx faster than serial\n",
		report.GMERun, report.TotalRuns, report.Speedup())
	fmt.Printf("best plan: DOP %d, %d instructions (%d selects, %d packs)\n",
		best.MaxDOP(), st.Instrs, st.Selects, st.Packs)
	fmt.Printf("matches serial: %v\n", apq.ResultsEqual(serial, again))
	// Output:
	// GME at run 45 of 181, 6.23x faster than serial
	// best plan: DOP 8, 107 instructions (72 selects, 11 packs)
	// matches serial: true
}

// ExampleEngine_HeuristicPlan contrasts the static baseline with the
// adaptive plan on TPC-H Q14 (the paper's Table 5): both agree on results,
// but the adaptive plan gets there with far fewer operators.
func ExampleEngine_HeuristicPlan() {
	db := apq.LoadTPCH(2, 7)
	eng := apq.NewEngine(db, apq.TwoSocketMachine())
	q := apq.TPCHQuery(14)
	serial := must(eng.Execute(q))

	// Heuristic: one partition per hardware thread, every parallelizable
	// operator cloned.
	hp := must(eng.HeuristicPlan(q, 0))
	hpRes := must(eng.Execute(hp))

	// Adaptive: converge on execution feedback.
	sess := eng.NewAdaptiveSession(q, apq.WithResultVerification())
	rep := must(sess.Converge())
	ap := sess.BestQuery()
	apRes := must(eng.Execute(ap))

	fmt.Printf("results agree: %v\n", apq.ResultsEqual(serial, hpRes) && apq.ResultsEqual(serial, apRes))
	fmt.Printf("adaptive converged in %d runs, global minimum at run %d\n", rep.TotalRuns, rep.GMERun)
	aps, hps := ap.Stats(), hp.Stats()
	fmt.Printf("%-12s %8s %9s\n", "Table 5", "adaptive", "heuristic")
	fmt.Printf("%-12s %8d %9d\n", "selects", aps.Selects, hps.Selects)
	fmt.Printf("%-12s %8d %9d\n", "joins", aps.Joins, hps.Joins)
	fmt.Printf("%-12s %8d %9d\n", "instructions", aps.Instrs, hps.Instrs)
	fmt.Printf("%-12s %8d %9d\n", "DOP", aps.MaxDOP, hps.MaxDOP)
	// Output:
	// results agree: true
	// adaptive converged in 180 runs, global minimum at run 41
	// Table 5      adaptive heuristic
	// selects            33        64
	// joins               8        32
	// instructions      173       430
	// DOP                32        32
}

// ExampleServer_Handler plays a client re-submitting one TPC-H query to the
// query service. The service keeps the query's adaptive session alive in its
// plan cache, so every request is one adaptive run and the session converges
// on the request stream itself — the paper's "optimize once, execute many"
// workflow through the serving layer.
func ExampleServer_Handler() {
	srv := must(apq.NewServer(apq.ServerConfig{
		DB:         apq.LoadTPCH(1, 42),
		Machine:    apq.TwoSocketMachine(),
		DBIdentity: apq.DBIdentity("tpch", 1, 42),
		Shards:     1,
	}))
	defer srv.Close()
	h := srv.Handler()

	var reply queryReply
	requests := 0
	for ; requests < 1000 && reply.State != "converged"; requests++ {
		call(h, "POST", "/query", `{"query":14}`, &reply)
	}
	fmt.Printf("converged after %d requests: DOP %d, %.2fx faster than serial\n",
		requests, reply.DOP, reply.Speedup)

	// The full convergence trace is a GET away.
	var trace struct {
		Runs   int `json:"runs"`
		GMERun int `json:"gme_run"`
	}
	call(h, "GET", "/sessions/"+reply.Session+"/trace", "", &trace)
	fmt.Printf("trace: %d runs, global minimum at run %d\n", trace.Runs, trace.GMERun)
	// Output:
	// converged after 192 requests: DOP 16, 3.06x faster than serial
	// trace: 192 runs, global minimum at run 16
}

// ExampleTenantConfig serves three tenant datasets — the default TPC-H
// database and two more generated with other seeds — over one two-shard
// engine pool, and converges the same query shape on every tenant at once.
// The tenants share the machines, buffer recyclers and plan-schedule caches;
// they stay isolated because every plan-cache fingerprint includes the
// tenant's dataset identity, so each tenant converges its own session.
func ExampleTenantConfig() {
	srv := must(apq.NewServer(apq.ServerConfig{
		DB:         apq.LoadTPCH(0.5, 42),
		Machine:    apq.TwoSocketMachine(),
		DBIdentity: apq.DBIdentity("tpch", 0.5, 42),
		Shards:     2,
		Tenants: []apq.TenantConfig{
			{Name: "acme", SF: 0.5, Seed: 7, MaxSessions: 8, MaxInFlight: 16},
			{Name: "globex", SF: 0.5, Seed: 9, MaxSessions: 8, MaxInFlight: 16},
		},
	}))
	defer srv.Close()
	h := srv.Handler()

	tenants := []string{"default", "acme", "globex"}
	final := make([]queryReply, len(tenants))
	var wg sync.WaitGroup
	for i, tenant := range tenants {
		wg.Add(1)
		go func(i int, tenant string) {
			defer wg.Done()
			body := fmt.Sprintf(`{"tenant":%q,"select_sum":{"table":"lineitem","column":"l_quantity","lo":1,"hi":12}}`, tenant)
			for r := 0; r < 1000 && final[i].State != "converged"; r++ {
				call(h, "POST", "/query", body, &final[i])
			}
		}(i, tenant)
	}
	wg.Wait()

	sessions := map[string]bool{}
	for i, tenant := range tenants {
		r := final[i]
		sessions[r.Session] = true
		fmt.Printf("%-7s converged at run %d: DOP %d, %.2fx faster than serial\n",
			tenant, r.Run, r.DOP, r.Speedup)
	}
	fmt.Println("distinct sessions:", len(sessions) == len(tenants))

	var stats struct {
		Tenants []struct {
			Tenant   string `json:"tenant"`
			Requests int64  `json:"requests"`
			Cache    struct {
				Hits int64 `json:"hits"`
			} `json:"cache"`
		} `json:"tenants"`
	}
	call(h, "GET", "/stats", "", &stats)
	for _, t := range stats.Tenants {
		fmt.Printf("%-7s %d requests, %d cache hits\n", t.Tenant, t.Requests, t.Cache.Hits)
	}
	// Output:
	// default converged at run 194: DOP 8, 4.58x faster than serial
	// acme    converged at run 194: DOP 8, 4.60x faster than serial
	// globex  converged at run 194: DOP 8, 4.58x faster than serial
	// distinct sessions: true
	// default 195 requests, 194 cache hits
	// acme    195 requests, 194 cache hits
	// globex  195 requests, 194 cache hits
}

// ExampleExportPlans shows the persistent convergence store. A service
// converges a query and persists the converged session; a second service on
// the same store file serves the query converged from its very first
// request. Exporting the store and importing it into a fresh one moves the
// learned plan to a third service that never adapted anything.
func ExampleExportPlans() {
	dir := must(os.MkdirTemp("", "apq-example-"))
	defer os.RemoveAll(dir)
	storePath := filepath.Join(dir, "plans.apqs")
	cfg := apq.ServerConfig{
		DB:         apq.LoadTPCH(0.5, 42),
		Machine:    apq.TwoSocketMachine(),
		DBIdentity: apq.DBIdentity("tpch", 0.5, 42),
		Shards:     1,
		StorePath:  storePath,
	}
	const q6 = `{"query":6}`

	// Service one converges from scratch; Close flushes the converged
	// session to the store.
	srv := must(apq.NewServer(cfg))
	var reply queryReply
	requests := 0
	for ; requests < 1000 && reply.State != "converged"; requests++ {
		call(srv.Handler(), "POST", "/query", q6, &reply)
	}
	srv.Close()
	fmt.Printf("service 1: converged after %d requests: DOP %d, %.2fx faster than serial\n",
		requests, reply.DOP, reply.Speedup)

	// Service two rehydrates the session at startup, identity-checked
	// against the dataset.
	srv = must(apq.NewServer(cfg))
	var warm queryReply
	call(srv.Handler(), "POST", "/query", q6, &warm)
	srv.Close()
	fmt.Printf("service 2: first request %s, cache hit %v\n", warm.State, warm.CacheHit)

	exportPath := filepath.Join(dir, "plans.apqx")
	cfg.StorePath = filepath.Join(dir, "fresh.apqs")
	exported := must(apq.ExportPlans(storePath, exportPath))
	imported := must(apq.ImportPlans(cfg.StorePath, exportPath))
	fmt.Printf("exported %d record(s), imported %d into a fresh store\n", exported, imported)

	srv = must(apq.NewServer(cfg))
	defer srv.Close()
	var moved queryReply
	call(srv.Handler(), "POST", "/query", q6, &moved)
	fmt.Printf("service 3: first request %s, cache hit %v\n", moved.State, moved.CacheHit)
	// Output:
	// service 1: converged after 192 requests: DOP 8, 3.76x faster than serial
	// service 2: first request converged, cache hit true
	// exported 1 record(s), imported 1 into a fresh store
	// service 3: first request converged, cache hit true
}

// ExampleDBIdentity shows the dataset identity that query fingerprints
// include, so fingerprints change when the data does.
func ExampleDBIdentity() {
	fmt.Println(apq.DBIdentity("tpch", 1, 42))
	// Output: tpch:sf=1:seed=42
}

// queryReply is the part of the POST /query reply the examples read.
type queryReply struct {
	Session  string  `json:"session"`
	State    string  `json:"state"`
	Run      int     `json:"run"`
	CacheHit bool    `json:"cache_hit"`
	Speedup  float64 `json:"speedup"`
	DOP      int     `json:"dop"`
}

// call serves one request through h and decodes its JSON reply into v.
func call(h http.Handler, method, path, body string, v any) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		panic(fmt.Sprintf("%s %s: HTTP %d: %s", method, path, rec.Code, rec.Body))
	}
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		panic(err)
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
