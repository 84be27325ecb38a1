package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/sim"
	"repro/internal/tpch"
)

// handlerPost drives the handler in-process (no listener): the sharded
// tests issue many requests and must stay fast under -race.
func handlerPost(t *testing.T, s *Server, req QueryRequest) (QueryResponse, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	s.Handler().ServeHTTP(rec, r)
	var qr QueryResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return qr, rec.Code
}

func handlerGet(t *testing.T, s *Server, path string, out any) int {
	t.Helper()
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodGet, path, nil)
	s.Handler().ServeHTTP(rec, r)
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return rec.Code
}

func newShardedServer(t *testing.T, shards int) (*Server, *Config) {
	t.Helper()
	cat := tpch.Generate(tpch.Config{SF: 0.2, Seed: 42})
	cfg := Config{
		DBIdentity: "tpch:sf=0.2:seed=42",
		Benchmark:  "tpch",
	}
	for i := 0; i < shards; i++ {
		cfg.Engines = append(cfg.Engines, exec.NewEngine(cat, sim.TwoSocket(), cost.Default()))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, &cfg
}

// TestShardPinningIsStable is the shard-pool invariant: one fingerprint
// never migrates shards, so a session's adaptive convergence happens on one
// deterministic virtual machine, while distinct fingerprints spread across
// the pool.
func TestShardPinningIsStable(t *testing.T) {
	s, _ := newShardedServer(t, 4)

	// Distinct select_sum predicates give distinct fingerprints.
	specs := make([]QueryRequest, 16)
	for i := range specs {
		hi := int64(100 + i)
		specs[i] = QueryRequest{SelectSum: &SelectSumSpec{Table: "lineitem", Column: "l_quantity", Hi: &hi}}
	}

	shardOf := map[string]int{}      // fingerprint -> shard
	sessionOf := map[string]string{} // fingerprint -> session id
	used := map[int]bool{}
	for round := 0; round < 5; round++ {
		for i, req := range specs {
			qr := serveShardQuery(t, s, req)
			if qr.Shard < 0 || qr.Shard >= 4 {
				t.Fatalf("query %d: shard %d out of range", i, qr.Shard)
			}
			used[qr.Shard] = true
			if prev, ok := shardOf[qr.Fingerprint]; ok && prev != qr.Shard {
				t.Fatalf("fingerprint %s migrated shard %d -> %d on round %d",
					qr.Fingerprint, prev, qr.Shard, round)
			}
			shardOf[qr.Fingerprint] = qr.Shard
			if prev, ok := sessionOf[qr.Fingerprint]; ok && prev != qr.Session {
				t.Fatalf("fingerprint %s switched session %s -> %s", qr.Fingerprint, prev, qr.Session)
			}
			sessionOf[qr.Fingerprint] = qr.Session
		}
	}
	if len(used) < 2 {
		t.Fatalf("16 distinct fingerprints all landed on one shard: %v", used)
	}

	// Serial-mode requests pin by the same fingerprint hash.
	for i, req := range specs {
		req.Mode = "serial"
		qr := serveShardQuery(t, s, req)
		adaptive := specs[i]
		want := shardOf[fingerprintOf(t, s, &adaptive)]
		if qr.Shard != want {
			t.Fatalf("serial request %d landed on shard %d, adaptive sibling on %d", i, qr.Shard, want)
		}
	}
}

func fingerprintOf(t *testing.T, s *Server, req *QueryRequest) string {
	t.Helper()
	tg, derr := s.resolve("", req)
	if derr != nil {
		t.Fatal(derr.err)
	}
	return tg.fp
}

// serveInProcess runs req through resolve and dispatch, the serve path below
// HTTP framing, for the default tenant.
func serveInProcess(s *Server, req *QueryRequest) (QueryResponse, []exec.Value, *dispatchErr) {
	tg, derr := s.resolve("", req)
	if derr != nil {
		return QueryResponse{}, nil, derr
	}
	return s.dispatch(context.Background(), tg, req, false)
}

func serveShardQuery(t *testing.T, s *Server, req QueryRequest) QueryResponse {
	t.Helper()
	qr, code := handlerPost(t, s, req)
	if code != 200 {
		t.Fatalf("status %d for %+v", code, req)
	}
	return qr
}

// TestShardedEndpoints: sessions and stats aggregate across shards with
// shard attribution, and traces are reachable under namespaced ids.
func TestShardedEndpoints(t *testing.T) {
	s, _ := newShardedServer(t, 3)
	var lastSession string
	for i := 0; i < 12; i++ {
		hi := int64(50 + i)
		qr := serveShardQuery(t, s, QueryRequest{SelectSum: &SelectSumSpec{Table: "lineitem", Column: "l_quantity", Hi: &hi}})
		lastSession = qr.Session
	}

	var sessions []SessionInfo
	if code := handlerGet(t, s, "/sessions", &sessions); code != 200 {
		t.Fatalf("sessions status %d", code)
	}
	if len(sessions) != 12 {
		t.Fatalf("expected 12 sessions, got %d", len(sessions))
	}
	shardSeen := map[int]bool{}
	for _, info := range sessions {
		shardSeen[info.Shard] = true
		wantPrefix := fmt.Sprintf("s%d.", info.Shard)
		if len(info.Session) < len(wantPrefix) || info.Session[:len(wantPrefix)] != wantPrefix {
			t.Fatalf("session id %q not namespaced by shard %d", info.Session, info.Shard)
		}
	}
	if len(shardSeen) < 2 {
		t.Fatalf("sessions all on one shard: %v", shardSeen)
	}

	var trace TraceResponse
	if code := handlerGet(t, s, "/sessions/"+lastSession+"/trace", &trace); code != 200 {
		t.Fatalf("trace status %d for %s", code, lastSession)
	}
	if trace.Session != lastSession || len(trace.Invocations) == 0 {
		t.Fatalf("bad trace for %s: %+v", lastSession, trace)
	}

	var stats StatsResponse
	if code := handlerGet(t, s, "/stats", &stats); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if stats.Shards != 3 || len(stats.PerShard) != 3 {
		t.Fatalf("stats shard breakdown wrong: shards=%d per_shard=%d", stats.Shards, len(stats.PerShard))
	}
	if stats.Cache.Entries != 12 || stats.Cache.Misses != 12 {
		t.Fatalf("aggregated cache stats wrong: %+v", stats.Cache)
	}
	var sumEntries int
	for _, ps := range stats.PerShard {
		sumEntries += ps.Cache.Entries
	}
	if sumEntries != 12 {
		t.Fatalf("per-shard entries sum to %d, want 12", sumEntries)
	}
}

// TestShardedConcurrentClients drives distinct queries from concurrent
// clients across a 4-shard pool under -race: the shard run-loops must
// isolate each engine's single-threaded machine.
func TestShardedConcurrentClients(t *testing.T) {
	s, _ := newShardedServer(t, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				hi := int64(200 + c) // one fingerprint per client
				qr, code := handlerPost(t, s, QueryRequest{SelectSum: &SelectSumSpec{Table: "lineitem", Column: "l_quantity", Hi: &hi}})
				if code != 200 {
					errs <- fmt.Errorf("client %d: status %d", c, code)
					return
				}
				if qr.Run != i {
					errs <- fmt.Errorf("client %d: request %d executed run %d — session state lost", c, i, qr.Run)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
