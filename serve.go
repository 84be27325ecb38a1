package apq

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
)

// FaultEvent is one scheduled machine fault for chaos testing: core loss,
// socket throttling, or interference (see the Kind constants).
type FaultEvent = sim.FaultEvent

// FaultPlan is a deterministic schedule of machine faults, applied in
// virtual-time order while the engine runs.
type FaultPlan = sim.FaultPlan

// FaultKind selects what a FaultEvent does to the simulated machine.
type FaultKind = sim.FaultKind

// Fault kinds for FaultEvent.Kind.
const (
	FaultCoreLoss       = sim.FaultCoreLoss
	FaultSocketThrottle = sim.FaultSocketThrottle
	FaultInterference   = sim.FaultInterference
)

// ResultContentType is the media type of the columnar APQRESULT reply body.
// A POST /query carrying it in Accept (or "results":true in the body)
// receives the full result values streamed column-at-a-time instead of the
// JSON metadata reply.
const ResultContentType = server.ResultContentType

// ResultPayload is a decoded APQRESULT reply: the JSON metadata the plain
// reply would have carried, plus the typed columnar result values.
type ResultPayload = server.ResultPayload

// DecodeResult parses an APQRESULT reply body — the typed client-side
// decoder for results-negotiated /query responses. Corrupt or truncated
// documents error; a successful decode is bit-identical to the engine's
// published result.
func DecodeResult(data []byte) (*ResultPayload, error) {
	return server.DecodeResult(data)
}

// ServerConfig configures the apqd query service (see cmd/apqd). The daemon
// keeps adaptive-parallelization state alive between requests: each request
// against a cached query is one adaptive run, so latency drops
// request-over-request as the query's session converges.
type ServerConfig struct {
	// DB is the loaded database the service executes against.
	DB *DB
	// Machine is the simulated hardware.
	Machine Machine
	// DBIdentity names the dataset for query fingerprinting (e.g. the
	// output of DBIdentity). Fingerprints must change when the data does.
	DBIdentity string
	// Benchmark is "tpch" (default) or "tpcds": which named-query set this
	// daemon serves.
	Benchmark string
	// Admission enables Vectorwise-style admission control for concurrent
	// clients (VectorwiseAdmissionMaxCores, §4.2.4 of the paper).
	Admission bool
	// CacheSize bounds each shard's plan-session cache (0 = unlimited).
	// When full, least-recently-used sessions are evicted, converged ones
	// first.
	CacheSize int
	// Tenants are additional named datasets served over the same engine
	// shard pool. Each tenant generates its own database and catalog from
	// (Benchmark, SF, Seed) with its own DBIdentity; requests route by the
	// "tenant" body field or X-APQ-Tenant header. The primary DB above
	// remains reachable as tenant "default". Tenants share everything but
	// the data: machines, buffer recyclers, plan-schedule caches and
	// admission control are the pool's, and isolation holds because every
	// cache fingerprint incorporates the tenant's dataset identity.
	Tenants []TenantConfig
	// StorePath, when set, opens (or creates) the persistent convergence
	// store at that path: converged plan-sessions are written behind as
	// they converge and rehydrated at startup, so the first request after a
	// restart is served from the learned plan instead of re-adapting.
	// Records are identity-checked on rehydration — a record whose dataset
	// identity or cost calibration no longer matches is skipped, never
	// merged. The server owns the store and closes it on Close.
	StorePath string
	// Shards is the engine-pool width: independent engine replicas, each
	// with its own simulated machine behind its own engine-ownership lock
	// over the shared read-only catalog. Queries are pinned to shards by fingerprint hash,
	// so distinct queries execute concurrently on distinct host cores while
	// each session's convergence stays deterministic and single-threaded.
	// 0 derives the width from GOMAXPROCS; 1 reproduces the single-engine
	// daemon.
	Shards int
	// Staleness arms serving-time staleness detection: a converged query
	// whose observed latency stays more than 35 % off its converged
	// expectation for 3 consecutive servings reopens its convergence and
	// re-adapts.
	Staleness bool
	// Drift arms workload-drift detection: a converged query whose serve
	// latency no longer matches the tenant query mix it converged under (6
	// of its last 8 servings out of the same band, and its share of the
	// tenant's last 64 invocations moved by at least 0.2) is proactively
	// reopened with a budget sized to the observed latency.
	Drift bool
	// Faults schedules deterministic machine faults on every shard's
	// simulated machine for chaos testing (empty = none). Faults land at
	// their virtual AtNs as the shard's engine clock advances.
	Faults FaultPlan
	// RequestTimeout bounds each request end to end, including its wait for
	// the shard's engine; expired requests abort with 503 (0 = no deadline).
	RequestTimeout time.Duration
	// MaxShardQueue bounds the waiting line in front of each shard; excess
	// arrivals are shed with 503 + Retry-After (0 = unbounded).
	MaxShardQueue int
	// Breaker arms the per-shard health breaker: 5 consecutive failed
	// requests (an engine error, a shed, an expired deadline) trip the shard
	// into degraded mode, serving last-converged plans without exploration
	// until a 10 s cooldown elapses and a half-open probe succeeds.
	Breaker bool
	// Cluster federates this daemon with remote peers (nil = standalone).
	// When set, /query routes by fingerprint across the consistent-hash ring
	// before it queues for an engine, convergence records replicate to the
	// peers write-behind, a dead peer's fingerprints fail over to survivors
	// warm, and Handler() serves /cluster/replicate and /admin/peers too.
	Cluster *ClusterConfig
}

// ClusterPeer names one remote daemon of a federation.
type ClusterPeer = cluster.Peer

// ClusterConfig federates a daemon with its peers: Self is this node's ring
// name (required; must differ from every peer), Peers the initial remote
// membership, which POST/DELETE /admin/peers mutates live. All nodes must
// agree on the set of node names (ring ownership is computed independently on
// each node) and should run identically configured tenants — replicated
// records are identity-checked on arrival, so a mismatched peer skips them.
// Peer timeout, retry, breaker and probe cadence are the coordinator's fixed
// timing (2s; 2 retries from 25ms; 3 failures, 2s cooldown; 500ms).
type ClusterConfig = cluster.Config

// TenantConfig declares one named tenant dataset for the query service: the
// body of POST /admin/tenants, so a statically configured tenant and one
// added at runtime are declared alike.
type TenantConfig = server.TenantSpec

// buildTenant generates a tenant's dataset and wraps it for the serving
// layer. It is both the NewServer path for statically configured tenants and
// the factory behind runtime POST /admin/tenants.
func buildTenant(t TenantConfig) (server.Tenant, error) {
	bench := t.Benchmark
	if bench == "" {
		bench = "tpch"
	}
	sf := t.SF
	if sf == 0 {
		sf = 1
	}
	var db *DB
	switch bench {
	case "tpch":
		db = LoadTPCH(sf, t.Seed)
	case "tpcds":
		db = LoadTPCDS(sf, t.Seed)
	default:
		return server.Tenant{}, fmt.Errorf("apq: tenant %q: unknown benchmark %q (want tpch or tpcds)", t.Name, bench)
	}
	return server.Tenant{
		Name:        t.Name,
		Catalog:     db.cat,
		DBIdentity:  DBIdentity(bench, sf, t.Seed),
		Benchmark:   bench,
		MaxSessions: t.MaxSessions,
		MaxInFlight: t.MaxInFlight,
	}, nil
}

// Server is the query-service core: HTTP handlers over a pool of engine
// shards, each with its own plan-session cache and admission controller.
// Every single-threaded virtual-time engine is owned by its shard's
// engine-ownership lock, so the handler set is safe for concurrent clients
// while distinct queries execute concurrently on distinct shards.
type Server struct {
	inner     *server.Server
	st        *store.Store
	coord     *cluster.Coordinator
	closeOnce sync.Once
}

// NewServer creates a query service. Close it when done serving.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("apq: ServerConfig.DB is required")
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards < 1 {
		return nil, fmt.Errorf("apq: ServerConfig.Shards %d invalid", cfg.Shards)
	}
	engines := make([]*exec.Engine, shards)
	for i := range engines {
		// Each shard replica owns its own simulated machine; the catalog
		// underneath is shared and read-only.
		engines[i] = NewEngine(cfg.DB, cfg.Machine).inner
	}
	// Tenant datasets are generated once and shared read-only by every
	// shard; requests resolve binds against their tenant's catalog while
	// executing on the shared pool.
	tenants := make([]server.Tenant, 0, len(cfg.Tenants))
	for _, t := range cfg.Tenants {
		tn, err := buildTenant(t)
		if err != nil {
			return nil, err
		}
		tenants = append(tenants, tn)
	}
	var st *store.Store
	if cfg.StorePath != "" {
		var err error
		if st, err = store.Open(cfg.StorePath); err != nil {
			return nil, err
		}
	}
	scfg := server.Config{
		Engines:        engines,
		DBIdentity:     cfg.DBIdentity,
		Benchmark:      cfg.Benchmark,
		Admission:      cfg.Admission,
		CacheSize:      cfg.CacheSize,
		Tenants:        tenants,
		Store:          st,
		Staleness:      cfg.Staleness,
		Drift:          cfg.Drift,
		TenantFactory:  buildTenant,
		Faults:         cfg.Faults,
		RequestTimeout: cfg.RequestTimeout,
		MaxShardQueue:  cfg.MaxShardQueue,
		Breaker:        cfg.Breaker,
	}
	// A failure from here on closes what was built through Close.
	s := &Server{st: st}
	var err error
	if cfg.Cluster != nil {
		if s.coord, err = cluster.New(*cfg.Cluster); err != nil {
			s.Close()
			return nil, err
		}
		scfg.Federation = s.coord
	}
	if s.inner, err = server.New(scfg); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Shards reports the engine-pool width the server is running with.
func (s *Server) Shards() int { return s.inner.Shards() }

// Handler returns the HTTP handler tree: POST /query, GET /sessions,
// GET /sessions/{id}/trace, GET /stats, GET /healthz, plus the admin
// surface POST /admin/append, POST /admin/truncate, POST|DELETE
// /admin/tenants. A federated daemon (ServerConfig.Cluster) adds POST
// /cluster/replicate and GET|POST|DELETE /admin/peers.
func (s *Server) Handler() http.Handler { return s.inner.Handler() }

// Close drains in-flight requests, retires the engine shards, flushes the
// write-behind persistence queue, and closes the convergence store (when
// one is configured). Idempotent: later calls are no-ops. Requests arriving
// afterwards fail with 503.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		// Federation machinery first: the replicator flushes its queue
		// against a still-serving pool of peers.
		if s.coord != nil {
			s.coord.Close()
		}
		if s.inner != nil {
			s.inner.Close()
		}
		if s.st != nil {
			s.st.Close()
		}
	})
}

// Serve runs the query service on addr until ctx is cancelled, then shuts
// down gracefully (in-flight requests drain before the engine stops).
func Serve(ctx context.Context, addr string, cfg ServerConfig) error {
	s, err := NewServer(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	// Keep-alive tuning: idle client connections are retained for two
	// minutes so steady request streams skip TCP/TLS setup entirely (the
	// serving benchmark showed connection churn dominating small-query
	// latency), while ReadHeaderTimeout bounds slow-header clients so the
	// daemon cannot be wedged by half-open connections.
	hs := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case <-ctx.Done():
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(shctx)
	case err := <-errc:
		return err
	}
}

// ExportPlans writes every record of the convergence store at storePath to
// a self-describing versioned export file at exportPath, atomically. The
// export is deterministic (records sorted by fingerprint), so identical
// stores export bit-identical files. It returns the record count.
func ExportPlans(storePath, exportPath string) (int, error) {
	st, err := store.Open(storePath)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	return st.Export(exportPath)
}

// ImportPlans merges the records of an export file into the convergence
// store at storePath (created if missing). Records supersede same-fingerprint
// ones already present. A corrupt or foreign export file, or one at a format
// version other than the current or the previous one, is rejected with an
// error before anything is written. It returns the record count imported.
func ImportPlans(storePath, importPath string) (int, error) {
	st, err := store.Open(storePath)
	if err != nil {
		return 0, err
	}
	n, err := st.Import(importPath)
	if err != nil {
		st.Close()
		return 0, err
	}
	return n, st.Close()
}

// DBIdentity renders the canonical dataset identity for the built-in
// generators: benchmark name, scale factor, and seed.
func DBIdentity(benchmark string, sf float64, seed int64) string {
	return fmt.Sprintf("%s:sf=%g:seed=%d", benchmark, sf, seed)
}
