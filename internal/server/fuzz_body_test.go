package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/sim"
	"repro/internal/tpch"
)

// FuzzServeBodies sends every input, as the body, to each POST route of one
// tiny server through the real handler: /query and the three admin routes
// share one body reader, and nothing a client writes there may answer 5xx (a
// panic shows as 500 through the route wrapper) or anything but JSON when it
// is refused. The server has a tenant factory, so a tenant addition is served
// rather than refused as unconfigured; whatever tenant an input added is
// removed before the next, and the session cache is bounded, so state cannot
// pile up across inputs. After every input the default tenant still answers.
func FuzzServeBodies(f *testing.F) {
	for _, seed := range []string{
		`{"query":6}`,
		`{"select_sum":{"table":"lineitem","column":"l_quantity","lo":10,"hi":30}}`,
		`{"select_rows":{"table":"nation","column":"n_regionkey","hi":2},"results":true}`,
		`{"table":"nation","columns":{"n_nationkey":{"ints":[25]},"n_regionkey":{"ints":[1]},"n_name":{"strs":["NATION_25"]}}}`,
		`{"table":"nation","rows":1}`,
		`{"name":"fuzz","max_sessions":2,"max_in_flight":1}`,
	} {
		f.Add([]byte(seed))
	}
	cat := tpch.Generate(tpch.Config{SF: 0.01, Seed: 42})
	srv, err := New(Config{
		Engines:    []*exec.Engine{exec.NewEngine(cat, sim.TwoSocket(), cost.Default())},
		DBIdentity: "tpch:sf=0.01:seed=42",
		CacheSize:  16,
		TenantFactory: func(spec TenantSpec) (Tenant, error) {
			return Tenant{
				Name:        spec.Name,
				Catalog:     cat,
				DBIdentity:  "fuzz:" + spec.Name,
				Benchmark:   spec.Benchmark,
				MaxSessions: spec.MaxSessions,
				MaxInFlight: spec.MaxInFlight,
			}, nil
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/query", "/admin/append", "/admin/truncate", "/admin/tenants"} {
			rec := post(path, body)
			if rec.Code >= 500 {
				t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
			}
			if ct := rec.Header().Get("Content-Type"); rec.Code != http.StatusOK && ct != "application/json" {
				t.Fatalf("POST %s %q: status %d with Content-Type %q", path, body, rec.Code, ct)
			}
			if path == "/admin/tenants" && rec.Code == http.StatusOK {
				var added TenantLifecycleResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &added); err != nil {
					t.Fatalf("tenant addition reply %q: %v", rec.Body, err)
				}
				if _, err := srv.RemoveTenant(added.Tenant); err != nil {
					t.Fatalf("removing tenant %q: %v", added.Tenant, err)
				}
			}
		}
		if rec := post("/query", []byte(`{"query":6}`)); rec.Code != http.StatusOK {
			t.Fatalf("after %q the default tenant answers %d: %s", body, rec.Code, rec.Body)
		}
	})
}
