package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/plancache"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/tpch"
)

// appendColsFor is an append of n rows to table, recycling the table's own
// values so it is schema-correct.
func appendColsFor(cat *storage.Catalog, table string, n int) map[string]storage.ColumnAppend {
	tab := cat.MustTable(table)
	cols := map[string]storage.ColumnAppend{}
	for _, name := range tab.ColumnNames() {
		col := tab.MustColumn(name)
		if col.Data().IsString() {
			vals := make([]string, n)
			for i := range vals {
				vals[i] = col.Data().StringAt((i * 13) % col.Len())
			}
			cols[name] = storage.ColumnAppend{Strs: vals}
		} else {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = col.At((i * 13) % col.Len())
			}
			cols[name] = storage.ColumnAppend{Ints: vals}
		}
	}
	return cols
}

// appendBodyFor is appendColsFor as a POST /admin/append body.
func appendBodyFor(t *testing.T, cat *storage.Catalog, tenant, table string, n int) []byte {
	t.Helper()
	body, err := json.Marshal(appendRequest{Tenant: tenant, Table: table, Columns: appendColsFor(cat, table, n)})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// writerAppendBody is the benchmark writer's append body: rows copies of
// seed-picked rows of table, as bench/oracle.go builds and marshals it.
func writerAppendBody(t testing.TB, cat *storage.Catalog, table string, rows int, seed int64) []byte {
	t.Helper()
	tab := cat.MustTable(table)
	rng := rand.New(rand.NewSource(seed))
	pick := make([]int, rows)
	for i := range pick {
		pick[i] = rng.Intn(tab.Rows())
	}
	cols := map[string]storage.ColumnAppend{}
	for _, name := range tab.ColumnNames() {
		col := tab.MustColumn(name)
		var a storage.ColumnAppend
		for _, r := range pick {
			if d := col.Dict(); d != nil {
				a.Strs = append(a.Strs, d.Value(col.At(r)))
			} else {
				a.Ints = append(a.Ints, col.At(r))
			}
		}
		cols[name] = a
	}
	body, err := json.Marshal(map[string]any{"table": table, "columns": cols})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postJSON fires one request and returns the status code plus decoded body.
func postJSON(t *testing.T, s *Server, method, path string, body []byte, out any) int {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	s.Handler().ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
	}
	return rec.Code
}

// convergeCounting drives body until convergence, returning how many
// requests (= adaptive runs) it took.
func convergeCounting(t *testing.T, s *Server, body []byte) int {
	t.Helper()
	for i := 1; i <= 600; i++ {
		if serveOnce(t, s, body).State == "converged" {
			return i
		}
	}
	t.Fatal("query never converged")
	return 0
}

// bestPlanResults executes the converged session's learned plan for fp on
// its home shard against the tenant's live catalog, returning the values.
func bestPlanResults(t *testing.T, s *Server, fp string) []exec.Value {
	t.Helper()
	sh := s.shardFor(fp)
	var vals []exec.Value
	if err := s.do(sh, func() {
		e := sh.cache.GetFingerprint(fp)
		if e == nil || !e.Session.Done() {
			t.Errorf("session for %s not converged", fp)
			return
		}
		var err error
		vals, _, err = sh.eng.ExecuteOpts(e.Session.Best(), exec.JobOptions{Catalog: s.defTenant.curCatalog()})
		if err != nil {
			t.Errorf("best-plan execution: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return vals
}

// TestAppendChurnWarmReconvergence is the churn acceptance test: an
// /admin/append bumps the default tenant's epoch and reopens its converged
// session warm; re-convergence takes at most HALF the runs a cold server
// needs on the mutated data, and the learned plan's results are
// bit-identical to a fresh server's on that data.
func TestAppendChurnWarmReconvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping churn e2e in -short mode")
	}
	cat := tpch.Generate(tpch.Config{SF: 0.5, Seed: 42})
	srv := newStoreServer(t, cat, nil, nil)
	defer srv.Close()
	q6 := []byte(`{"query":6}`)
	convergeQuery(t, srv, q6)

	grow := cat.MustTable("lineitem").Rows() * 2 / 5
	var mut MutationResponse
	if code := postJSON(t, srv, http.MethodPost, "/admin/append",
		appendBodyFor(t, cat, "", "lineitem", grow), &mut); code != http.StatusOK {
		t.Fatalf("/admin/append status %d", code)
	}
	if mut.Epoch != 1 || mut.SessionsReopened != 1 {
		t.Fatalf("append reply: %+v, want epoch 1 and 1 session reopened", mut)
	}
	st := statsOf(t, srv)
	if st.Lifecycle.Appends != 1 || st.Cache.DataReopens != 1 {
		t.Fatalf("stats after append: lifecycle=%+v data_reopens=%d", st.Lifecycle, st.Cache.DataReopens)
	}
	if len(st.Tenants) == 0 || st.Tenants[0].Epoch != 1 {
		t.Fatalf("default tenant epoch not bumped: %+v", st.Tenants)
	}

	// Warm re-convergence on the request stream vs a cold server on the
	// same mutated data — built by the same append, not borrowed from srv:
	// a server owns its catalog's lineage and srv goes on mutating.
	warmRuns := convergeCounting(t, srv, q6)
	ncat, err := cat.AppendRows("lineitem", appendColsFor(cat, "lineitem", grow))
	if err != nil {
		t.Fatal(err)
	}
	cold := newStoreServer(t, ncat, nil, nil)
	defer cold.Close()
	coldRuns := convergeCounting(t, cold, q6)
	if warmRuns*2 > coldRuns {
		t.Fatalf("warm re-convergence took %d runs, cold %d — want warm <= cold/2", warmRuns, coldRuns)
	}

	// Bit-identical results: warm-reconverged learned plan vs cold-learned
	// plan vs the serial baseline, all on the mutated catalog.
	fp := plancache.Fingerprint("tpch:sf=0.5:seed=42", "tpch:q6")
	warmVals := bestPlanResults(t, srv, fp)
	coldVals := bestPlanResults(t, cold, fp)
	serial, _, err := exec.NewEngine(ncat, sim.TwoSocket(), cost.Default()).Execute(tpch.MustQuery(6))
	if err != nil {
		t.Fatal(err)
	}
	if !exec.ResultsEqual(warmVals, serial) || !exec.ResultsEqual(coldVals, serial) {
		t.Fatal("post-churn results differ from a fresh server on the mutated data")
	}

	// Truncate back down: another epoch, another warm re-convergence.
	trunc, err := json.Marshal(truncateRequest{Table: "lineitem", Rows: grow})
	if err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, srv, http.MethodPost, "/admin/truncate", trunc, &mut); code != http.StatusOK {
		t.Fatalf("/admin/truncate status %d", code)
	}
	if mut.Epoch != 2 {
		t.Fatalf("truncate reply: %+v, want epoch 2", mut)
	}
	convergeQuery(t, srv, q6)
	if got := statsOf(t, srv); got.Lifecycle.Deletes != 1 || got.Cache.DataReopens != 2 {
		t.Fatalf("stats after truncate: lifecycle=%+v data_reopens=%d", got.Lifecycle, got.Cache.DataReopens)
	}
}

// TestJoinRepliesFollowTheEpoch: a data mutation that leaves every length as
// it was must still change what a join answers. The session keeps serving its
// best plan object — same schedule, same arena — across the epoch, and Q4's
// join inner is an intermediate (the order keys of a date range) whose
// memoized wrapper carries its hash index; the last 2000 orders are replaced
// by rows that differ only in o_orderkey, so the intermediate keeps its
// length and only its keys move. Builds before PR 20 probed the old index.
func TestJoinRepliesFollowTheEpoch(t *testing.T) {
	const rows = 2000
	cat := tpch.Generate(tpch.Config{SF: 0.5, Seed: 42})
	srv, ts := newTestServer(t, Config{
		Benchmark: "tpch",
		Engines:   []*exec.Engine{exec.NewEngine(cat, sim.TwoSocket(), cost.Default())},
	})
	reply := func(mode string) []exec.Value {
		t.Helper()
		p, err := DecodeResult(postResultRaw(t, ts.URL, QueryRequest{Query: 4, Mode: mode}, false))
		if err != nil {
			t.Fatal(err)
		}
		return p.Values
	}
	before := reply("serial")
	for i := 0; i < 3; i++ {
		if !exec.ResultsEqual(reply(""), before) {
			t.Fatalf("request %d before the mutation differs from the serial reply", i)
		}
	}

	orders := cat.MustTable("orders")
	tail := orders.Rows() - rows
	trunc, _ := json.Marshal(truncateRequest{Table: "orders", Rows: rows})
	// Three replacements under different keys each: the first append copies
	// (no mutation made the generator's table, it has no heap), the second and
	// third land at the address and length of the rows they replace — two
	// epochs' columns equal in everything a pointer can say, different in
	// content.
	var heapAt *int64
	for cycle := 0; cycle < 3; cycle++ {
		cols := map[string]storage.ColumnAppend{}
		for _, name := range orders.ColumnNames() {
			col, from := orders.MustColumn(name), tail
			if name == "o_orderkey" {
				from = cycle * rows // earlier orders' keys under the last orders' dates
			}
			if col.Data().IsString() {
				vals := make([]string, rows)
				for i := range vals {
					vals[i] = col.Data().StringAt(from + i)
				}
				cols[name] = storage.ColumnAppend{Strs: vals}
			} else {
				cols[name] = storage.ColumnAppend{Ints: col.Values()[from : from+rows]}
			}
		}
		app, _ := json.Marshal(appendRequest{Table: "orders", Columns: cols})
		for _, m := range []struct {
			path string
			body []byte
		}{{"/admin/truncate", trunc}, {"/admin/append", app}} {
			if code := postJSON(t, srv, http.MethodPost, m.path, m.body, nil); code != http.StatusOK {
				t.Fatalf("%s status %d", m.path, code)
			}
		}

		at := &srv.defTenant.curCatalog().MustTable("orders").MustColumn("o_orderkey").Values()[0]
		if cycle > 0 && at != heapAt {
			t.Fatalf("cycle %d: the append copied; the test no longer reuses an address", cycle)
		}
		heapAt = at

		after := reply("serial")
		if exec.ResultsEqual(after, before) {
			t.Fatalf("cycle %d: the mutation did not change Q4's serial reply; the test no longer exercises a stale index", cycle)
		}
		for i := 0; i < 3; i++ {
			if got := reply(""); !exec.ResultsEqual(got, after) {
				t.Fatalf("cycle %d: adaptive request %d after the mutation counts %v, serial counts %v", cycle, i, got[1].Col.Values(), after[1].Col.Values())
			}
		}
		before = after
	}
}

// TestConvergedServingsReplay: /stats counts how each run found its virtual
// time. A converged query's second serving repeats the best plan's recorded
// timeline (runs.replayed); the first serving after /admin/append reads a new
// catalog, so the event core simulates it (runs.simulated).
func TestConvergedServingsReplay(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.1, Seed: 42})
	srv, _ := newTestServer(t, Config{
		Benchmark: "tpch",
		Engines:   []*exec.Engine{exec.NewEngine(cat, sim.TwoSocket(), cost.Default())},
	})
	q6 := []byte(`{"query":6}`)
	convergeQuery(t, srv, q6)
	runs := func() exec.RunStats { return statsOf(t, srv).PerShard[0].Runs }
	check := func(what string, before exec.RunStats, replayed, simulated int64) {
		t.Helper()
		if got := runs(); got.Replayed-before.Replayed != replayed || got.Simulated-before.Simulated != simulated {
			t.Fatalf("%s: runs %+v, then %+v; want %d replayed, %d simulated", what, before, got, replayed, simulated)
		}
	}
	serveOnce(t, srv, q6)
	before := runs()
	if qr := serveOnce(t, srv, q6); qr.State != "converged" {
		t.Fatalf("second converged serving reports state %q", qr.State)
	}
	check("second converged serving", before, 1, 0)

	if code := postJSON(t, srv, http.MethodPost, "/admin/append", appendBodyFor(t, cat, "", "lineitem", 100), nil); code != http.StatusOK {
		t.Fatalf("/admin/append status %d", code)
	}
	before = runs()
	serveOnce(t, srv, q6)
	check("first serving after /admin/append", before, 0, 1)
}

// TestAdminAppendValidation: malformed mutations are 400s (or 404 for an
// unknown tenant) and never bump an epoch.
func TestAdminAppendValidation(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.1, Seed: 42})
	srv := newStoreServer(t, cat, nil, nil)
	defer srv.Close()
	for _, tc := range []struct {
		name string
		body string
		code int
	}{
		{"bad json", `{"table":`, http.StatusBadRequest},
		{"unknown table", `{"table":"nope","columns":{"x":{"ints":[1]}}}`, http.StatusBadRequest},
		{"missing columns", `{"table":"lineitem","columns":{"l_shipdate":{"ints":[1]}}}`, http.StatusBadRequest},
		{"unknown tenant", `{"tenant":"ghost","table":"lineitem","columns":{}}`, http.StatusNotFound},
		{"fraction", `{"table":"lineitem","columns":{"l_quantity":{"ints":[1.5]}}}`, http.StatusBadRequest},
		{"exponent", `{"table":"lineitem","columns":{"l_quantity":{"ints":[1e2]}}}`, http.StatusBadRequest},
		{"int64 overflow", `{"table":"lineitem","columns":{"l_quantity":{"ints":[9223372036854775808]}}}`, http.StatusBadRequest},
		{"ints as a string", `{"table":"lineitem","columns":{"l_quantity":{"ints":"7"}}}`, http.StatusBadRequest},
		{"strs of a number", `{"table":"lineitem","columns":{"l_returnflag":{"strs":[1]}}}`, http.StatusBadRequest},
		{"non-object body", `[]`, http.StatusBadRequest},
		{"unterminated string", `{"table":"lineitem`, http.StatusBadRequest},
		{"control byte in a string", "{\"table\":\"line\x01item\"}", http.StatusBadRequest},
	} {
		if code := postJSON(t, srv, http.MethodPost, "/admin/append", []byte(tc.body), nil); code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.code)
		}
	}
	if st := statsOf(t, srv); st.Tenants[0].Epoch != 0 || st.Lifecycle.Appends != 0 {
		t.Fatalf("failed mutations moved state: %+v", st.Lifecycle)
	}
	srv.Close()
	if _, err := srv.AppendRows("", "lineitem", nil); err != ErrClosed {
		t.Fatalf("mutation after Close: %v, want ErrClosed", err)
	}
}

// TestAdminBodiesDecodeLikeQuery: every POST route reads its body the way
// /query does — over the limit is 413 (not a 400 from a truncated stream),
// and bytes after the first JSON value are rejected, not ignored.
func TestAdminBodiesDecodeLikeQuery(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.1, Seed: 42})
	srv := newStoreServer(t, cat, nil, nil)
	defer srv.Close()
	huge := append([]byte(`{"table":"`), bytes.Repeat([]byte("x"), maxRequestBody)...)
	huge = append(huge, `"}`...)
	// Each body is valid for its route up to the trailing bytes, so only
	// the decoder can be what rejects it.
	for path, valid := range map[string][]byte{
		"/query":          []byte(`{"query":6}`),
		"/admin/append":   appendBodyFor(t, cat, "", "lineitem", 1),
		"/admin/truncate": []byte(`{"table":"lineitem","rows":1}`),
		"/admin/tenants":  []byte(`{"name":"t2","sf":0.01}`),
	} {
		if code := postJSON(t, srv, http.MethodPost, path, huge, nil); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s over-limit body: status %d, want 413", path, code)
		}
		if code := postJSON(t, srv, http.MethodPost, path, append(valid, "garbage"...), nil); code != http.StatusBadRequest {
			t.Errorf("%s trailing bytes: status %d, want 400", path, code)
		}
	}
	if st := statsOf(t, srv); st.Tenants[0].Epoch != 0 || len(st.Tenants) != 1 {
		t.Fatalf("rejected bodies moved state: %+v", st.Tenants)
	}
}

// TestTenantLifecycleOverLiveTraffic is the zero-downtime acceptance test:
// tenants are added and removed while request traffic hammers both the
// default tenant and the churned one. No request may ever see a 5xx — valid
// answers are 200 (served) and 404 (tenant gone at routing or admission).
func TestTenantLifecycleOverLiveTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping lifecycle race test in -short mode")
	}
	cat := tpch.Generate(tpch.Config{SF: 0.1, Seed: 42})
	srv, err := New(Config{
		Engines:    []*exec.Engine{exec.NewEngine(cat, sim.TwoSocket(), cost.Default())},
		DBIdentity: "tpch:sf=0.1:seed=42",
		TenantFactory: func(spec TenantSpec) (Tenant, error) {
			return Tenant{
				Name:        spec.Name,
				Catalog:     tpch.Generate(tpch.Config{SF: 0.1, Seed: spec.Seed}),
				DBIdentity:  fmt.Sprintf("tpch:sf=0.1:seed=%d", spec.Seed),
				MaxSessions: spec.MaxSessions,
				MaxInFlight: spec.MaxInFlight,
			}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var bad atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	hammer := func(body []byte) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
			if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
				bad.Add(1)
				t.Errorf("live traffic got status %d: %s", rec.Code, rec.Body.String())
				return
			}
		}
	}
	wg.Add(3)
	go hammer([]byte(`{"query":6}`))
	go hammer([]byte(`{"tenant":"churn","query":6}`))
	go hammer([]byte(`{"tenant":"churn","query":14}`))

	// Churn the tenant through three add/remove cycles under that traffic.
	for cycle := int64(0); cycle < 3 && bad.Load() == 0; cycle++ {
		spec, _ := json.Marshal(TenantSpec{Name: "churn", Seed: 100 + cycle})
		if code := postJSON(t, srv, http.MethodPost, "/admin/tenants", spec, nil); code != http.StatusOK {
			t.Errorf("add cycle %d: status %d", cycle, code)
			break
		}
		// Let some traffic land on the live tenant before tearing it down.
		for i := 0; i < 25; i++ {
			serveOnce(t, srv, []byte(`{"query":6}`))
		}
		var life TenantLifecycleResponse
		if code := postJSON(t, srv, http.MethodDelete, "/admin/tenants?name=churn", nil, &life); code != http.StatusOK {
			t.Errorf("remove cycle %d: status %d", cycle, code)
			break
		}
	}
	close(stop)
	wg.Wait()

	st := statsOf(t, srv)
	if st.Lifecycle.TenantsAdded != 3 || st.Lifecycle.TenantsRemoved != 3 {
		t.Fatalf("lifecycle counters: %+v, want 3 added / 3 removed", st.Lifecycle)
	}
	for _, row := range st.Tenants {
		if row.Tenant == "churn" {
			t.Fatal("removed tenant still present in /stats")
		}
	}
	// Routing is clean after churn: the tenant 404s, the default serves.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader([]byte(`{"tenant":"churn","query":6}`))))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("removed tenant answered %d", rec.Code)
	}
	serveOnce(t, srv, []byte(`{"query":6}`))
}

// TestTenantRemovalFlushesAndRehydrates: removing a tenant flushes its
// converged sessions to the store; re-adding the same tenant (same identity,
// same epoch) rehydrates them served-converged. A record learned after an
// append (epoch 1) comes back as a warm seed only, because a re-added tenant
// is regenerated at epoch 0.
func TestTenantRemovalFlushesAndRehydrates(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping store lifecycle test in -short mode")
	}
	cat := tpch.Generate(tpch.Config{SF: 0.1, Seed: 42})
	tcat := tpch.Generate(tpch.Config{SF: 0.1, Seed: 7})
	st, err := store.Open(filepath.Join(t.TempDir(), "conv.apqs"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := New(Config{
		Engines:    []*exec.Engine{exec.NewEngine(cat, sim.TwoSocket(), cost.Default())},
		DBIdentity: "tpch:sf=0.1:seed=42",
		Store:      st,
		TenantFactory: func(spec TenantSpec) (Tenant, error) {
			return Tenant{Name: spec.Name, Catalog: tcat, DBIdentity: "tpch:sf=0.1:seed=7"}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if _, err := srv.AddTenant(TenantSpec{Name: "t1"}); err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"tenant":"t1","query":6}`)
	convergeQuery(t, srv, body)
	life, err := srv.RemoveTenant("t1")
	if err != nil {
		t.Fatal(err)
	}
	if life.SessionsFlushed != 1 {
		t.Fatalf("removal flushed %d sessions, want 1", life.SessionsFlushed)
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d records after removal, want 1", st.Len())
	}

	// Same epoch: the record comes back served-converged on the first hit.
	life, err = srv.AddTenant(TenantSpec{Name: "t1"})
	if err != nil {
		t.Fatal(err)
	}
	if life.SessionsRehydrated != 1 || life.SessionsWarmSeeded != 0 {
		t.Fatalf("re-add rehydrated=%d warm=%d, want 1/0", life.SessionsRehydrated, life.SessionsWarmSeeded)
	}
	if qr := serveOnce(t, srv, body); qr.State != "converged" || !qr.CacheHit {
		t.Fatalf("first post-re-add request not served converged: %+v", qr)
	}

	// Epoch mismatch, the way production gets one: an append moves the
	// tenant to epoch 1, the query re-converges there, and removal flushes
	// that epoch-1 record. The re-added tenant's dataset is generated afresh
	// at epoch 0, so the record must come back warm, never served-converged.
	var mut MutationResponse
	if code := postJSON(t, srv, http.MethodPost, "/admin/append", appendBodyFor(t, tcat, "t1", "lineitem", 500), &mut); code != http.StatusOK || mut.Epoch != 1 {
		t.Fatalf("/admin/append: status %d, reply %+v; want 200 at epoch 1", code, mut)
	}
	convergeQuery(t, srv, body)
	if life, err = srv.RemoveTenant("t1"); err != nil {
		t.Fatal(err)
	}
	if life.SessionsFlushed != 1 {
		t.Fatalf("removal at epoch 1 flushed %d sessions, want 1", life.SessionsFlushed)
	}
	life, err = srv.AddTenant(TenantSpec{Name: "t1"})
	if err != nil {
		t.Fatal(err)
	}
	if life.SessionsRehydrated != 0 || life.SessionsWarmSeeded != 1 {
		t.Fatalf("mismatched re-add rehydrated=%d warm=%d, want 0/1", life.SessionsRehydrated, life.SessionsWarmSeeded)
	}
	qr := serveOnce(t, srv, body)
	if qr.State == "converged" || !qr.CacheHit {
		t.Fatalf("epoch-mismatched record served converged: %+v", qr)
	}
	convergeQuery(t, srv, body)
}
