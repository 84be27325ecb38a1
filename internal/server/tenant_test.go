package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// postTenant posts a query routed to a tenant, via the body field or the
// X-APQ-Tenant header.
func postTenant(t *testing.T, url, tenant string, req QueryRequest, viaHeader bool) (QueryResponse, int) {
	t.Helper()
	if !viaHeader {
		req.Tenant = tenant
	}
	body, _ := json.Marshal(req)
	hr, err := http.NewRequest(http.MethodPost, url+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if viaHeader {
		hr.Header.Set("X-APQ-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatalf("POST /query (tenant %s): %v", tenant, err)
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

// convergeBaseline converges query q on a fresh single-tenant server over
// cat and returns the session's entry (history, attempts, results) for
// equivalence comparison.
func convergeBaseline(t *testing.T, cat *storage.Catalog, dbIdentity string, q int) *plancache.Entry {
	t.Helper()
	s, ts := newTestServer(t, Config{
		Engines:    []*exec.Engine{exec.NewEngine(cat, sim.TwoSocket(), cost.Default())},
		DBIdentity: dbIdentity,
		Benchmark:  "tpch",
	})
	var last QueryResponse
	for i := 0; i < 400; i++ {
		qr, code := postQuery(t, ts.URL, QueryRequest{Query: q})
		if code != http.StatusOK {
			t.Fatalf("baseline %s: status %d at request %d", dbIdentity, code, i)
		}
		last = qr
		if qr.State == "converged" {
			break
		}
	}
	if last.State != "converged" {
		t.Fatalf("baseline %s never converged", dbIdentity)
	}
	e := s.shardFor(last.Fingerprint).cache.GetFingerprint(last.Fingerprint)
	if e == nil {
		t.Fatalf("baseline %s: converged session not in cache", dbIdentity)
	}
	return e
}

// TestTenantIsolationConcurrentConvergence is the multi-tenant acceptance
// test (exercised under -race in CI): the same TPC-H query number converges
// concurrently on two tenant datasets over one shared shard pool, producing
// distinct fingerprints and sessions, per-tenant results and convergence
// histories bit-identical to single-tenant servers over the same datasets,
// and a correct per-tenant /stats breakdown.
func TestTenantIsolationConcurrentConvergence(t *testing.T) {
	catA := tpch.Generate(tpch.Config{SF: 0.25, Seed: 1})
	catB := tpch.Generate(tpch.Config{SF: 0.25, Seed: 2})
	baseA := convergeBaseline(t, catA, "tpch:sf=0.25:seed=1", 6)
	baseB := convergeBaseline(t, catB, "tpch:sf=0.25:seed=2", 6)

	// The multi-tenant server: a 2-shard pool over the primary dataset,
	// with A and B as named tenants sharing the pool.
	primary := tpch.Generate(tpch.Config{SF: 0.25, Seed: 42})
	engines := []*exec.Engine{
		exec.NewEngine(primary, sim.TwoSocket(), cost.Default()),
		exec.NewEngine(primary, sim.TwoSocket(), cost.Default()),
	}
	s, ts := newTestServer(t, Config{
		Engines:    engines,
		DBIdentity: "tpch:sf=0.25:seed=42",
		Benchmark:  "tpch",
		Tenants: []Tenant{
			{Name: "a", Catalog: catA, DBIdentity: "tpch:sf=0.25:seed=1"},
			{Name: "b", Catalog: catB, DBIdentity: "tpch:sf=0.25:seed=2"},
		},
	})

	// Converge q6 on both tenants concurrently; tenant b routes by header
	// to cover both routing paths.
	finals := make([]QueryResponse, 2)
	steps := make([]int, 2)
	var wg sync.WaitGroup
	for i, tenant := range []string{"a", "b"} {
		wg.Add(1)
		go func(i int, tenant string) {
			defer wg.Done()
			for r := 0; r < 400; r++ {
				qr, code := postTenant(t, ts.URL, tenant, QueryRequest{Query: 6}, tenant == "b")
				if code != http.StatusOK {
					t.Errorf("tenant %s: status %d", tenant, code)
					return
				}
				finals[i] = qr
				steps[i]++
				if qr.State == "converged" {
					return
				}
			}
			t.Errorf("tenant %s never converged", tenant)
		}(i, tenant)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Same query number, distinct tenants: distinct fingerprints, sessions,
	// and tenant attribution.
	if finals[0].Fingerprint == finals[1].Fingerprint {
		t.Fatalf("tenants a and b share fingerprint %s", finals[0].Fingerprint)
	}
	if finals[0].Session == finals[1].Session {
		t.Fatalf("tenants a and b share session %s", finals[0].Session)
	}
	if finals[0].Tenant != "a" || finals[1].Tenant != "b" {
		t.Fatalf("tenant attribution: %q, %q", finals[0].Tenant, finals[1].Tenant)
	}

	// Per-tenant equivalence against the single-tenant baselines:
	// bit-identical results and convergence histories, even though the
	// multi-tenant sessions shared machines, recyclers and schedule caches
	// with each other and possibly interleaved on one shard.
	for i, base := range []*plancache.Entry{baseA, baseB} {
		e := s.shardFor(finals[i].Fingerprint).cache.GetFingerprint(finals[i].Fingerprint)
		if e == nil {
			t.Fatalf("tenant %s: session not in cache", finals[i].Tenant)
		}
		if e.Tenant != finals[i].Tenant {
			t.Fatalf("entry tenant tag %q, want %q", e.Tenant, finals[i].Tenant)
		}
		got, want := e.Session.Report(), base.Session.Report()
		if got.TotalRuns != want.TotalRuns || got.GMERun != want.GMERun {
			t.Fatalf("tenant %s: %d runs (GME at %d), baseline %d (GME at %d)",
				finals[i].Tenant, got.TotalRuns, got.GMERun, want.TotalRuns, want.GMERun)
		}
		for r := range want.History {
			if got.History[r] != want.History[r] {
				t.Fatalf("tenant %s: run %d latency %v != baseline %v",
					finals[i].Tenant, r, got.History[r], want.History[r])
			}
		}
		// Every run executed the baseline's plan; a session keeps the result
		// values of its serial and its latest run only.
		for r, a := range want.Attempts {
			if !bytes.Equal(plan.Encode(got.Attempts[r].Plan), plan.Encode(a.Plan)) {
				t.Fatalf("tenant %s: run %d executed another plan than the single-tenant baseline", finals[i].Tenant, r)
			}
		}
		for _, r := range []int{0, len(want.Attempts) - 1} {
			if !exec.ResultsEqual(got.Attempts[r].Results, want.Attempts[r].Results) {
				t.Fatalf("tenant %s: run %d results diverge from single-tenant baseline", finals[i].Tenant, r)
			}
		}
	}

	// The two tenants' datasets differ (different seeds), so the same query
	// must produce different results — isolation is visible in the data.
	eA := s.shardFor(finals[0].Fingerprint).cache.GetFingerprint(finals[0].Fingerprint)
	eB := s.shardFor(finals[1].Fingerprint).cache.GetFingerprint(finals[1].Fingerprint)
	if exec.ResultsEqual(eA.Session.Attempts()[0].Results, eB.Session.Attempts()[0].Results) {
		t.Fatal("tenants a and b produced identical results over different datasets")
	}

	// Per-tenant /stats counters.
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if len(stats.Tenants) != 3 || stats.Tenants[0].Tenant != "default" ||
		stats.Tenants[1].Tenant != "a" || stats.Tenants[2].Tenant != "b" {
		t.Fatalf("tenant rows: %+v", stats.Tenants)
	}
	for i, row := range stats.Tenants[1:] {
		if row.Requests != int64(steps[i]) {
			t.Fatalf("tenant %s: %d requests recorded, served %d", row.Tenant, row.Requests, steps[i])
		}
		if row.Cache.Entries != 1 || row.Cache.Converged != 1 || row.Cache.Misses != 1 {
			t.Fatalf("tenant %s cache stats: %+v", row.Tenant, row.Cache)
		}
		if row.Cache.Hits != int64(steps[i]-1) {
			t.Fatalf("tenant %s: %d cache hits, want %d", row.Tenant, row.Cache.Hits, steps[i]-1)
		}
	}
	if stats.Tenants[0].Requests != 0 || stats.Tenants[0].Cache.Entries != 0 {
		t.Fatalf("default tenant saw traffic it was never sent: %+v", stats.Tenants[0])
	}

	// /sessions?tenant= scopes the listing.
	for _, tc := range []struct {
		query string
		want  int
	}{{"a", 1}, {"b", 1}, {"default", 0}, {"", 0}} {
		var sessions []SessionInfo
		if code := getJSON(t, ts.URL+"/sessions?tenant="+tc.query, &sessions); code != http.StatusOK {
			t.Fatalf("sessions?tenant=%s status %d", tc.query, code)
		}
		if len(sessions) != tc.want {
			t.Fatalf("sessions?tenant=%s: %d sessions, want %d", tc.query, len(sessions), tc.want)
		}
	}
	var all []SessionInfo
	getJSON(t, ts.URL+"/sessions", &all)
	if len(all) != 2 {
		t.Fatalf("unfiltered sessions: %d, want 2", len(all))
	}
}

// TestTenantQuotaEviction: a tenant over its session quota evicts its own
// least-recently-used session and never another tenant's — the default
// tenant's converged session survives the offender's overflow.
func TestTenantQuotaEviction(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.25, Seed: 7})
	_, ts := newTestServer(t, Config{
		Benchmark: "tpch",
		Tenants:   []Tenant{{Name: "acme", Catalog: cat, DBIdentity: "acme-db", MaxSessions: 2}},
	})

	// A converged default-tenant session: the prime eviction candidate
	// under the old tenant-blind policy (converged LRU goes first).
	var def QueryResponse
	for i := 0; i < 400; i++ {
		qr, code := postQuery(t, ts.URL, QueryRequest{Query: 6})
		if code != http.StatusOK {
			t.Fatalf("default q6: status %d", code)
		}
		def = qr
		if qr.State == "converged" {
			break
		}
	}
	if def.State != "converged" {
		t.Fatal("default q6 never converged")
	}

	// Three distinct acme sessions against a quota of 2: the third insert
	// pushes acme over quota, and acme's own oldest session must go.
	var acme [3]QueryResponse
	for i := range acme {
		lo := int64(1 + i)
		qr, code := postTenant(t, ts.URL, "acme", QueryRequest{
			SelectSum: &SelectSumSpec{Table: "lineitem", Column: "l_quantity", Lo: &lo},
		}, false)
		if code != http.StatusOK {
			t.Fatalf("acme spec %d: status %d", i, code)
		}
		acme[i] = qr
	}

	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	rows := map[string]TenantStatsInfo{}
	for _, row := range stats.Tenants {
		rows[row.Tenant] = row
	}
	if got := rows["acme"].Cache; got.Entries != 2 || got.Evictions != 1 {
		t.Fatalf("acme cache stats: %+v (want 2 entries, 1 eviction)", got)
	}
	if got := rows["default"].Cache; got.Entries != 1 || got.Converged != 1 || got.Evictions != 0 {
		t.Fatalf("default tenant's converged session was disturbed: %+v", got)
	}

	// The evicted session is acme's first (LRU); the default session and
	// acme's two newest survive.
	var sessions []SessionInfo
	getJSON(t, ts.URL+"/sessions", &sessions)
	alive := map[string]bool{}
	for _, si := range sessions {
		alive[si.Session] = true
	}
	if alive[acme[0].Session] {
		t.Fatal("acme's LRU session survived its own quota overflow")
	}
	if !alive[acme[1].Session] || !alive[acme[2].Session] || !alive[def.Session] {
		t.Fatalf("wrong eviction victim: alive=%v", alive)
	}
}

// TestTenantInFlightQuota: a tenant at its concurrency budget gets 429
// without queueing on shard locks; other tenants and later requests are
// unaffected.
func TestTenantInFlightQuota(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.25, Seed: 7})
	s, ts := newTestServer(t, Config{
		Benchmark: "tpch",
		Admission: true,
		Tenants:   []Tenant{{Name: "acme", Catalog: cat, MaxInFlight: 1}},
	})

	// Hold one acme request inside the handler (past the in-flight gate)
	// via the admission test seam.
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.admitHook = func() {
		once.Do(func() { close(entered) })
		<-release
	}
	done := make(chan int, 1)
	go func() {
		_, code := postTenant(t, ts.URL, "acme", QueryRequest{Query: 6}, false)
		done <- code
	}()
	<-entered
	s.admitHook = nil

	// Second acme request while the first is in flight: over quota, 429.
	if _, code := postTenant(t, ts.URL, "acme", QueryRequest{Query: 14}, false); code != http.StatusTooManyRequests {
		t.Fatalf("over-quota acme request: status %d, want 429", code)
	}
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("first acme request: status %d", code)
	}
	// The budget frees with the request.
	if _, code := postTenant(t, ts.URL, "acme", QueryRequest{Query: 6}, false); code != http.StatusOK {
		t.Fatalf("post-release acme request: status %d", code)
	}

	var stats StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	for _, row := range stats.Tenants {
		if row.Tenant == "acme" {
			if row.Rejected != 1 || row.PeakInFlight != 1 || row.MaxInFlight != 1 {
				t.Fatalf("acme quota counters: %+v", row)
			}
		}
	}

	// Unknown tenants are 404, before any engine work — on /query and on
	// the /sessions filter alike.
	if _, code := postTenant(t, ts.URL, "nope", QueryRequest{Query: 6}, false); code != http.StatusNotFound {
		t.Fatalf("unknown tenant: status %d, want 404", code)
	}
	var sessions []SessionInfo
	if code := getJSON(t, ts.URL+"/sessions?tenant=nope", &sessions); code != http.StatusNotFound {
		t.Fatalf("sessions filter for unknown tenant: status %d, want 404", code)
	}
	// A tenant serves only its own benchmark.
	if _, code := postTenant(t, ts.URL, "acme", QueryRequest{Benchmark: "tpcds", Query: 1}, false); code != http.StatusBadRequest {
		t.Fatalf("wrong-benchmark tenant request: status %d, want 400", code)
	}
}

// TestNewRejectsBadTenants: tenant config errors surface at startup.
func TestNewRejectsBadTenants(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.1, Seed: 42})
	eng := func() *exec.Engine { return exec.NewEngine(cat, sim.TwoSocket(), cost.Default()) }
	cases := []struct {
		name    string
		tenants []Tenant
	}{
		{"reserved name", []Tenant{{Name: "default", Catalog: cat}}},
		{"empty name", []Tenant{{Catalog: cat}}},
		{"nil catalog", []Tenant{{Name: "a"}}},
		{"duplicate", []Tenant{{Name: "a", Catalog: cat}, {Name: "a", Catalog: cat}}},
		{"bad benchmark", []Tenant{{Name: "a", Catalog: cat, Benchmark: "tpce"}}},
		// Identity collisions would silently merge cache sessions across
		// tenants (fingerprints incorporate DBIdentity) — startup errors.
		{"duplicate identity", []Tenant{
			{Name: "a", Catalog: cat, DBIdentity: "x"},
			{Name: "b", Catalog: cat, DBIdentity: "x"},
		}},
		{"identity collides with default", []Tenant{{Name: "tpch", Catalog: cat}}},
	}
	for _, tc := range cases {
		if _, err := New(Config{Engines: []*exec.Engine{eng()}, Benchmark: "tpch", Tenants: tc.tenants}); err == nil {
			t.Errorf("%s: New accepted bad tenant config", tc.name)
		}
	}
}
