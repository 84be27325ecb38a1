package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/plancache"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/tpch"
)

// keyPaths collects the recursive set of JSON key paths under v: objects
// contribute "parent.key", arrays "parent[]" (the union over their
// elements). Values are ignored — this is the reply's schema, not its data.
func keyPaths(prefix string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, sub := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			keyPaths(p, sub, out)
		}
	case []any:
		for _, sub := range x {
			keyPaths(prefix+"[]", sub, out)
		}
	}
}

// TestStatsSchemaPinned pins GET /stats from outside: the set of JSON key
// paths a two-tenant, two-shard, store-backed server replies with must equal
// testdata/stats_keys.txt (generated at the commit before plancache.Stats.Add
// and the shared write-behind queue, so neither may add, drop or rename a
// key), and the three views of the plan-cache counters — top level, per
// shard, per tenant — must agree field by field. The field list comes from
// plancache.Stats by reflection, so a counter added there later is checked
// here without anyone remembering to.
func TestStatsSchemaPinned(t *testing.T) {
	primary := tpch.Generate(tpch.Config{SF: 0.05, Seed: 42})
	catB := tpch.Generate(tpch.Config{SF: 0.05, Seed: 7})
	path := filepath.Join(t.TempDir(), "conv.apqs")
	boot := func() (*Server, *store.Store) {
		st, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{
			Engines: []*exec.Engine{
				exec.NewEngine(primary, sim.TwoSocket(), cost.Default()),
				exec.NewEngine(primary, sim.TwoSocket(), cost.Default()),
			},
			DBIdentity: "tpch:sf=0.05:seed=42",
			Benchmark:  "tpch",
			Tenants:    []Tenant{{Name: "b", Catalog: catB, DBIdentity: "tpch:sf=0.05:seed=7", MaxInFlight: 4, MaxSessions: 8}},
			Store:      st,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s, st
	}
	bodies := [][]byte{
		[]byte(`{"select_sum":{"table":"lineitem","column":"l_quantity","lo":1,"hi":24}}`),
		[]byte(`{"tenant":"b","select_sum":{"table":"lineitem","column":"l_quantity","lo":1,"hi":24}}`),
		[]byte(`{"tenant":"b","query":6}`),
	}

	// First life: converge every query so the store holds records; second
	// life: rehydrate them, serve both tenants again, and bump tenant b's
	// epoch — so the omitempty counters (rehydrated, data_reopens, …) are
	// live and their keys are part of the pinned set.
	s, st := boot()
	for _, body := range bodies {
		convergeQuery(t, s, body)
	}
	s.Close()
	st.Close()
	s, st = boot()
	defer st.Close()
	defer s.Close()
	for _, body := range bodies {
		serveOnce(t, s, body)
	}
	if _, err := s.DeleteTail("b", "lineitem", 10); err != nil {
		t.Fatal(err)
	}
	serveOnce(t, s, bodies[1])
	serveOnce(t, s, []byte(`{"query":14}`)) // a fingerprint the store never saw: one miss

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats status %d: %s", rec.Code, rec.Body.String())
	}
	var tree any
	if err := json.Unmarshal(rec.Body.Bytes(), &tree); err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	keyPaths("", tree, set)
	got := make([]string, 0, len(set))
	for p := range set {
		got = append(got, p)
	}
	sort.Strings(got)
	raw, err := os.ReadFile("testdata/stats_keys.txt")
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Fields(string(raw)); !reflect.DeepEqual(got, want) {
		t.Errorf("/stats key paths changed; got (one per line, the format of testdata/stats_keys.txt):\n%s", strings.Join(got, "\n"))
	}

	var resp StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.PerShard) != 2 || len(resp.Tenants) != 2 {
		t.Fatalf("want 2 shards and 2 tenants in /stats, got %d and %d", len(resp.PerShard), len(resp.Tenants))
	}
	field := func(v any, name string) int64 { return reflect.ValueOf(v).FieldByName(name).Int() }
	typ := reflect.TypeOf(plancache.Stats{})
	live := 0
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		total := field(resp.Cache, name)
		var shards, tenants int64
		for _, sh := range resp.PerShard {
			shards += field(sh.Cache, name)
		}
		for _, tn := range resp.Tenants {
			tenants += field(tn.Cache, name)
		}
		if total != shards || total != tenants {
			t.Errorf("cache.%s: top level %d, Σ per_shard %d, Σ tenants %d", name, total, shards, tenants)
		}
		if total != 0 {
			live++
		}
	}
	if live < 6 {
		t.Errorf("only %d plancache.Stats counters are non-zero — the scenario no longer exercises the sums", live)
	}
	// The shards' mutation searches are counted and timed: every query
	// converged above, so searches ran and took time.
	var search SearchStatsInfo
	for _, sh := range resp.PerShard {
		search.Runs += sh.Cache.Search.Runs
		search.Us += sh.Cache.Search.Us
	}
	if search.Runs == 0 || search.Us == 0 {
		t.Errorf("per_shard[].cache.search sums to %+v: the searches are not counted or not timed", search)
	}
}
