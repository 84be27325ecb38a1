package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/tpch"
)

// newStoreServer builds a one-shard server over cat wired to st (nil = no
// persistence). The caller owns the store's lifetime: Close flushes the
// write-behind queue but does not close the store, so a test can reopen it.
func newStoreServer(t *testing.T, cat *storage.Catalog, st *store.Store, tenants []Tenant) *Server {
	t.Helper()
	s, err := New(Config{
		Engines:    []*exec.Engine{exec.NewEngine(cat, sim.TwoSocket(), cost.Default())},
		DBIdentity: "tpch:sf=0.5:seed=42",
		Benchmark:  "tpch",
		Tenants:    tenants,
		Store:      st,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// statsOf lifts the full /stats reply.
func statsOf(t *testing.T, s *Server) StatsResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats status %d: %s", rec.Code, rec.Body.String())
	}
	var resp StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func relDiffF(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	return d / m
}

// TestServerRestartServesRehydratedPlan is the ISSUE 6 restart acceptance
// test: converge a query on a store-backed server, close it (flushing the
// write-behind queue), start a second server on the same store file, and
// require the FIRST post-restart request to be served from the rehydrated
// converged session — convergence state identical to a never-restarted twin,
// /stats reporting the rehydration.
func TestServerRestartServesRehydratedPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping store restart test in -short mode")
	}
	cat := tpch.Generate(tpch.Config{SF: 0.5, Seed: 42})
	path := filepath.Join(t.TempDir(), "conv.apqs")
	body := []byte(`{"query":6}`)

	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	srvA := newStoreServer(t, cat, st, nil)
	twin := newStoreServer(t, cat, nil, nil)
	defer twin.Close()
	convergeQuery(t, srvA, body)
	convergeQuery(t, twin, body)
	srvA.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 1 {
		t.Fatalf("store holds %d records after restart, want 1", st2.Len())
	}
	srvB := newStoreServer(t, cat, st2, nil)
	defer srvB.Close()

	// The first post-restart request is a cache hit on the rehydrated
	// converged session — no adaptation, no creation.
	qrB := serveOnce(t, srvB, body)
	qrA := serveOnce(t, twin, body)
	if qrB.State != "converged" || !qrB.CacheHit {
		t.Fatalf("first post-restart request not served converged: %+v", qrB)
	}
	if qrA.DOP != qrB.DOP || qrA.NumValues != qrB.NumValues {
		t.Fatalf("restored serving diverges from twin: %+v vs %+v", qrA, qrB)
	}
	// Convergence state (run count, best/serial latency, speedup) must be
	// identical to the twin's — the history replayed, not re-learned.
	if qrA.Run != qrB.Run || qrA.BestLatencyNs != qrB.BestLatencyNs ||
		qrA.SerialLatencyNs != qrB.SerialLatencyNs || qrA.Speedup != qrB.Speedup {
		t.Fatalf("convergence state diverges from twin:\n%+v\nvs\n%+v", qrA, qrB)
	}
	// Steady-state virtual latency matches from the second restored
	// invocation on (the first pays the plan's one-time compilation; the
	// tolerance is ulp-scale rounding from differing virtual clock bases).
	qrA2, qrB2 := serveOnce(t, twin, body), serveOnce(t, srvB, body)
	if relDiffF(qrA2.LatencyNs, qrB2.LatencyNs) > 1e-9 {
		t.Fatalf("steady-state latency diverges: twin %v vs restored %v", qrA2.LatencyNs, qrB2.LatencyNs)
	}

	stats := statsOf(t, srvB)
	if stats.Store == nil {
		t.Fatal("/stats has no store block on a store-backed server")
	}
	if stats.Store.RehydratedSessions < 1 {
		t.Fatalf("rehydrated_sessions = %d, want >= 1", stats.Store.RehydratedSessions)
	}
	if stats.Store.Records != 1 || stats.Store.SkippedRecords != 0 {
		t.Fatalf("store stats: %+v", stats.Store)
	}
	// The store block is absent without a store.
	if twinStats := statsOf(t, twin); twinStats.Store != nil {
		t.Fatalf("store block present without a store: %+v", twinStats.Store)
	}
}

// TestServerRehydrationSkipsOldPlanVersion: a record persisted by a build
// before the row-space rule (plan format version 1) may hold a converged plan
// that computes the wrong answer. The store still opens; the record fails to
// decode, is counted skipped, and the query re-adapts from its serial plan.
func TestServerRehydrationSkipsOldPlanVersion(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping store rehydration test in -short mode")
	}
	cat := tpch.Generate(tpch.Config{SF: 0.5, Seed: 42})
	path := filepath.Join(t.TempDir(), "conv.apqs")
	body := []byte(`{"query":6}`)

	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	srvA := newStoreServer(t, cat, st, nil)
	convergeQuery(t, srvA, body)
	srvA.Close()
	// Re-stamp the persisted plan as version 1 (same layout, older engine).
	recs := st.Records()
	if len(recs) != 1 || len(recs[0].PlanBytes) < 5 || recs[0].PlanBytes[4] != 2 {
		t.Fatalf("expected one record holding a version-2 plan, got %d", len(recs))
	}
	recs[0].PlanBytes = append([]byte(nil), recs[0].PlanBytes...)
	recs[0].PlanBytes[4] = 1
	if err := st.Put(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(path)
	if err != nil {
		t.Fatalf("store with a v1-plan record does not open: %v", err)
	}
	defer st2.Close()
	srvB := newStoreServer(t, cat, st2, nil)
	defer srvB.Close()
	if stats := statsOf(t, srvB); stats.Store == nil || stats.Store.RehydratedSessions != 0 || stats.Store.SkippedRecords != 1 {
		t.Fatalf("store stats after opening a v1-plan record: %+v", stats.Store)
	}
	if qr := serveOnce(t, srvB, body); qr.Run != 0 || qr.State == "converged" || qr.CacheHit {
		t.Fatalf("first request after skipping the record is not run 0 of a fresh session: %+v", qr)
	}
}

// TestServerRehydrationSkipsMismatchedRecords: records whose dataset identity
// or tenant no longer matches are skipped — counted, never merged, never
// fatal.
func TestServerRehydrationSkipsMismatchedRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping store rehydration test in -short mode")
	}
	cat := tpch.Generate(tpch.Config{SF: 0.5, Seed: 42})
	st, err := store.Open(filepath.Join(t.TempDir(), "conv.apqs"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Three foreign records: wrong dataset identity, unknown tenant, and an
	// undecodable plan under the right identity.
	for _, rec := range []store.Record{
		{Fingerprint: "f1", DBIdentity: "tpch:sf=9:seed=1", Query: "tpch:q6", PlanBytes: []byte("junk"), History: []float64{1}},
		{Fingerprint: "f2", DBIdentity: "tpch:sf=0.5:seed=42", Tenant: "ghost", Query: "tpch:q6", PlanBytes: []byte("junk"), History: []float64{1}},
		{Fingerprint: "f3", DBIdentity: "tpch:sf=0.5:seed=42", Query: "tpch:q6", PlanBytes: []byte("junk"), History: []float64{1}},
	} {
		if err := st.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	s := newStoreServer(t, cat, st, nil)
	defer s.Close()
	stats := statsOf(t, s)
	if stats.Store == nil || stats.Store.RehydratedSessions != 0 || stats.Store.SkippedRecords != 3 {
		t.Fatalf("store stats after foreign rehydration: %+v", stats.Store)
	}
	// The server still serves normally.
	if qr := serveOnce(t, s, []byte(`{"query":6}`)); qr.State == "" {
		t.Fatalf("serving broken after skipped rehydration: %+v", qr)
	}
}

// TestServerExportImportAcrossServers moves converged plans between two
// daemons through the export file: converge on A, export A's store, import
// into a fresh store, and serve converged from the first request on B.
func TestServerExportImportAcrossServers(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping export/import test in -short mode")
	}
	cat := tpch.Generate(tpch.Config{SF: 0.5, Seed: 42})
	dir := t.TempDir()
	bodies := [][]byte{
		[]byte(`{"query":6}`),
		[]byte(`{"select_sum":{"table":"lineitem","column":"l_quantity","lo":1,"hi":12}}`),
	}

	stA, err := store.Open(filepath.Join(dir, "a.apqs"))
	if err != nil {
		t.Fatal(err)
	}
	srvA := newStoreServer(t, cat, stA, nil)
	for _, body := range bodies {
		convergeQuery(t, srvA, body)
	}
	srvA.Close()
	exp := filepath.Join(dir, "plans.apqx")
	if n, err := stA.Export(exp); err != nil || n != len(bodies) {
		t.Fatalf("export: n=%d err=%v", n, err)
	}
	if err := stA.Close(); err != nil {
		t.Fatal(err)
	}

	stB, err := store.Open(filepath.Join(dir, "b.apqs"))
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()
	if n, err := stB.Import(exp); err != nil || n != len(bodies) {
		t.Fatalf("import: n=%d err=%v", n, err)
	}
	srvB := newStoreServer(t, cat, stB, nil)
	defer srvB.Close()
	if stats := statsOf(t, srvB); stats.Store == nil || stats.Store.RehydratedSessions != int64(len(bodies)) {
		t.Fatalf("store stats after import: %+v", stats.Store)
	}
	for _, body := range bodies {
		if qr := serveOnce(t, srvB, body); qr.State != "converged" || !qr.CacheHit {
			t.Fatalf("%s: first request on importing server not converged: %+v", body, qr)
		}
	}
}

// TestServerMultiTenantRehydration: tenant-tagged records rehydrate into
// their tenant's sessions (identity-checked per tenant), and a record for a
// tenant the restarted server no longer carries is skipped.
func TestServerMultiTenantRehydration(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-tenant store test in -short mode")
	}
	cat := tpch.Generate(tpch.Config{SF: 0.5, Seed: 42})
	catAcme := tpch.Generate(tpch.Config{SF: 0.25, Seed: 7})
	tenants := []Tenant{{
		Name:       "acme",
		Catalog:    catAcme,
		DBIdentity: "tpch:sf=0.25:seed=7",
		Benchmark:  "tpch",
	}}
	path := filepath.Join(t.TempDir(), "conv.apqs")
	defBody := []byte(`{"query":6}`)
	acmeBody := []byte(`{"tenant":"acme","query":6}`)

	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	srvA := newStoreServer(t, cat, st, tenants)
	convergeQuery(t, srvA, defBody)
	convergeQuery(t, srvA, acmeBody)
	srvA.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart with the tenant: both sessions rehydrate, each into its own
	// tenant, and the first request per tenant serves converged.
	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	srvB := newStoreServer(t, cat, st2, tenants)
	defer srvB.Close()
	for _, body := range [][]byte{defBody, acmeBody} {
		if qr := serveOnce(t, srvB, body); qr.State != "converged" || !qr.CacheHit {
			t.Fatalf("%s: first post-restart request not converged: %+v", body, qr)
		}
	}
	stats := statsOf(t, srvB)
	if stats.Store == nil || stats.Store.RehydratedSessions != 2 || stats.Store.SkippedRecords != 0 {
		t.Fatalf("store stats: %+v", stats.Store)
	}
	for _, tn := range stats.Tenants {
		if tn.Cache.Rehydrated != 1 {
			t.Fatalf("tenant %s rehydrated %d sessions, want 1", tn.Tenant, tn.Cache.Rehydrated)
		}
	}

	// Restart WITHOUT the tenant: the tenant-tagged record is skipped, the
	// default one still rehydrates.
	st3, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	srvC := newStoreServer(t, cat, st3, nil)
	defer srvC.Close()
	stats = statsOf(t, srvC)
	if stats.Store == nil || stats.Store.RehydratedSessions != 1 || stats.Store.SkippedRecords != 1 {
		t.Fatalf("store stats without tenant: %+v", stats.Store)
	}
	if qr := serveOnce(t, srvC, defBody); qr.State != "converged" {
		t.Fatalf("default session lost: %+v", qr)
	}
}

// TestServerStoreAllocStatsUnchanged guards the hot path: with a store wired
// in, a CONVERGED session's serving writes nothing — the write-behind queue
// stays empty and the record count stays flat while hot requests flow.
func TestServerStoreHotServingWritesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping store hot-path test in -short mode")
	}
	cat := tpch.Generate(tpch.Config{SF: 0.5, Seed: 42})
	st, err := store.Open(filepath.Join(t.TempDir(), "conv.apqs"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := newStoreServer(t, cat, st, nil)
	defer s.Close()
	body := []byte(`{"query":6}`)
	convergeQuery(t, s, body)
	// The write-behind queue is asynchronous: drain it so the counter below
	// is the settled post-convergence value.
	s.sync.Flush()
	written := statsOf(t, s).Store.RecordsWritten
	for i := 0; i < 100; i++ {
		serveOnce(t, s, body)
	}
	stats := statsOf(t, s)
	if stats.Store.RecordsWritten != written || stats.Store.WriteBehindQueueDepth != 0 {
		t.Fatalf("hot serving touched the store: wrote %d -> %d, queue %d",
			written, stats.Store.RecordsWritten, stats.Store.WriteBehindQueueDepth)
	}
	if written != 1 {
		t.Fatalf("convergence wrote %d records, want 1", written)
	}
}
