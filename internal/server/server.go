// Package server implements apqd's HTTP query service: a long-lived daemon
// that keeps adaptive-parallelization state alive between requests. The
// paper's workflow ("optimize once and execute many, adaptively") only pays
// off in a serving context — each request against a cached query is one
// adaptive run, so a query's latency drops request-over-request as its
// session converges on the global-minimum plan.
//
// Concurrency model: the engine shard pool. The discrete-event virtual-time
// machine underneath an execution engine is single-threaded: stepping it
// from two goroutines corrupts its event queue and clock. The seed server
// therefore owned ONE engine behind one run-loop goroutine and serialized
// every execution — so wall-clock throughput could not scale with host
// cores. The server now owns N independent engine replicas (shards), each
// with its own simulated machine and plan-session cache behind its own
// engine-ownership mutex, over one shared read-only catalog. A query is
// pinned to a shard by its fingerprint hash: a given session's adaptive
// convergence stays deterministic and single-threaded on its home shard,
// while distinct queries execute concurrently on distinct host cores.
//
// Admission control is layered per shard: concurrently arriving clients of
// the same shard take numbered slots and execute under a Vectorwise-style
// per-client core budget (vectorwise.AdmissionMaxCores, §4.2.4) — the first
// client keeps that shard's whole machine, later ones degrade toward
// serial.
//
// Multi-tenancy multiplexes independently-named datasets over that one shard
// pool (the IB-DWB shape): every tenant shares the machines, buffer
// recyclers, schedule caches and admission control, and a request differs
// only in which catalog its binds resolve against (exec.JobOptions.Catalog).
// Isolation is by fingerprint — cache keys incorporate the tenant's
// DBIdentity, so one plan-session cache per shard holds sessions from many
// tenants without collision — plus per-tenant quotas: a session-count quota
// enforced inside the cache (an over-quota tenant evicts only itself) and an
// in-flight quota that fails excess requests fast with 429. Ownership
// invariants are untouched by tenancy: sessions stay pinned to shards by
// fingerprint hash, engines are only touched under their shard's
// engine-ownership lock, and retired plans feed the shared recycler
// regardless of tenant (pooled buffers carry no data ownership — the next
// job fully rewrites them).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/tpcds"
	"repro/internal/tpch"
	"repro/internal/vectorwise"
)

// ErrClosed reports a request against a server that has shut down.
var ErrClosed = errors.New("server: closed")

// Config configures a Server.
type Config struct {
	// Engine is a single execution engine — the one-shard configuration.
	// The server takes ownership: all executions must go through it.
	Engine *exec.Engine
	// Engines, when set, is the shard pool: one engine replica per shard,
	// each with its own simulated machine over the shared catalog. Takes
	// precedence over Engine.
	Engines []*exec.Engine
	// DBIdentity names the dataset for fingerprinting, e.g.
	// "tpch:sf=1:seed=42". Fingerprints must change when the data does.
	DBIdentity string
	// Benchmark is the loaded benchmark ("tpch" or "tpcds"); named-query
	// requests for the other benchmark are rejected up front.
	Benchmark string
	// Admission enables the Vectorwise-style admission-control scheme for
	// concurrent clients of one shard.
	Admission bool
	// CacheSize bounds each shard's plan-session cache (0 = unlimited).
	CacheSize int
	// Tenants are additional named datasets served over the same shard
	// pool; the Engine/Engines catalog remains the default tenant.
	Tenants []Tenant
	// Mutation and Convergence tune adaptive sessions (zero = defaults).
	Mutation    core.MutationConfig
	Convergence core.ConvergenceConfig
	// Store, when set, is the persistent convergence store: converged
	// sessions are written behind (batched by a background synchronizer,
	// never on the serving hot path) and rehydrated into the shard caches
	// at startup, so the first request after a restart is already served
	// from the learned plan. The server flushes the synchronizer on Close
	// but does not close the store — the opener owns its lifetime.
	Store *store.Store

	// Staleness arms post-convergence staleness detection on every cached
	// session: converged sessions whose full-budget serving latencies drift
	// out of the band reopen convergence instead of pinning a stale plan
	// (core.StalenessConfig semantics; zero = disabled).
	Staleness core.StalenessConfig
	// Drift arms workload-drift detection on every shard cache: converged
	// sessions whose serve latency no longer matches the query mix they
	// converged under proactively reopen at the observed budget
	// (plancache.DriftConfig semantics; zero = disabled).
	Drift plancache.DriftConfig
	// TenantFactory builds the tenant (catalog included) for a runtime
	// POST /admin/tenants request. nil disables runtime tenant addition —
	// the endpoint replies 503. The hook runs outside every server lock:
	// dataset generation may be slow.
	TenantFactory func(TenantSpec) (Tenant, error)
	// Faults is a deterministic fault schedule applied to every shard's
	// simulated machine at startup (each shard has its own virtual clock, so
	// each sees the same schedule relative to its own time axis). Chaos
	// testing only; zero = no faults.
	Faults sim.FaultPlan
	// RequestTimeout bounds one /query request's wait for its shard plus
	// dispatch; an expired deadline aborts with 503 before engine work
	// starts (0 = no deadline beyond the client's own context).
	RequestTimeout time.Duration
	// MaxShardQueue bounds the number of requests waiting on (or holding)
	// one shard's engine semaphore; arrivals beyond it are shed with 503 +
	// Retry-After (0 = unbounded).
	MaxShardQueue int
	// BreakerFailures is the consecutive full-fidelity failure count (errors
	// or anomalously slow runs) that trips a shard's health breaker into
	// degraded mode (0 = breaker disabled).
	BreakerFailures int
	// BreakerCooldown is how long a tripped breaker serves frozen before
	// admitting a half-open probe (0 = probe immediately).
	BreakerCooldown time.Duration
	// SlowFactor counts a converged invocation slower than SlowFactor × its
	// session's serial baseline as a breaker failure (0 = only hard errors
	// count).
	SlowFactor float64

	// OnRecord, when set, observes every convergence record the serving
	// layer produces — the same records the persistent store receives, fired
	// on convergence and converged eviction (cold events only, never the
	// converged serving path). The federation replicator subscribes here to
	// ship converged sessions to peer nodes; the hook must not block (hand
	// off to a queue).
	OnRecord func(store.Record)
	// ClusterStats, when set, supplies the GET /stats "cluster" block — the
	// federation coordinator's view of its peers. nil omits the block.
	ClusterStats func() any
}

// shard is one engine replica: a simulated machine, its plan-session cache,
// and its admission slots. The one-slot semaphore is the engine-ownership
// boundary: the single-threaded virtual-time machine is only ever touched
// while holding it, so handler goroutines execute engine work inline (one
// uncontended channel send) instead of paying two handoffs to a dedicated
// run-loop goroutine per request — the seed design's main fixed cost under
// concurrent clients. A semaphore rather than a mutex because acquisition
// must be abortable: request deadlines select against it, and the shed
// policy bounds the line forming behind it (resilience.go).
type shard struct {
	id    int
	eng   *exec.Engine
	cache *plancache.Cache
	adm   admissionSlots

	sem     chan struct{} // 1-slot engine-ownership semaphore
	waiting atomic.Int32  // requests holding or waiting on sem
	brk     Breaker       // per-shard health breaker
}

// Server is the query-service daemon core: an HTTP handler set over a pool
// of engine shards.
type Server struct {
	cfg     Config
	shards  []*shard
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the panic-recovery middleware
	start   time.Time

	// tenants routes request tenant names; tenantList keeps /stats order
	// (default first, then config/addition order); defTenant is the primary
	// dataset. tenantMu guards the map and list — the tenant lifecycle API
	// mutates both at runtime. The tenantState values themselves are
	// internally synchronized (atomics); only membership needs the lock.
	tenantMu   sync.RWMutex
	tenants    map[string]*tenantState
	tenantList []*tenantState
	defTenant  *tenantState

	// life counts tenant-lifecycle and data-mutation admin operations.
	life struct {
		tenantsAdded   atomic.Int64
		tenantsRemoved atomic.Int64
		appends        atomic.Int64
		deletes        atomic.Int64
	}

	// randFn is the jitter source for Retry-After hints and breaker
	// cooldowns (nil = math/rand; tests pin it).
	randFn func() float64

	closeMu  sync.RWMutex
	closed   bool
	inflight sync.WaitGroup

	queryCount atomic.Int64
	errCount   atomic.Int64

	// flights is the single-flight table behind /query coalescing: identical
	// adaptive requests arriving while their shard is busy join one in-flight
	// engine run (dispatch). coalesced counts requests served by joining;
	// resultBytes counts APQRESULT payload bytes written — both /stats rows.
	flightMu    sync.Mutex
	flights     map[flightKey]*flight
	coalesced   atomic.Int64
	resultBytes atomic.Int64

	// fpMu guards the fingerprint cache: resolving a request's cache key
	// hashes and hex-encodes identity strings, which the hot serve loop
	// would otherwise re-allocate on every request for the same query.
	fpMu    sync.Mutex
	fpCache map[string]fpEntry

	// admitHook, when non-nil, runs between admission-slot acquisition and
	// engine dispatch — a test seam that makes concurrent admission
	// observable deterministically on single-CPU machines. panicHook runs
	// inside the recovery middleware before routing — the seam panic-path
	// tests trip deliberately.
	admitHook func()
	panicHook func(*http.Request)

	// res holds the overload-hardening counters (resilience.go).
	res struct {
		deadlineExpiries atomic.Int64
		shed             atomic.Int64
		panics           atomic.Int64
	}

	// sync is the write-behind path to cfg.Store (nil without a store);
	// rehydrated/warmSeeded/skippedRecords count rehydration outcomes
	// (atomics: runtime tenant addition rehydrates concurrently with /stats
	// reads).
	sync           *store.Synchronizer
	rehydrated     atomic.Int64
	warmSeeded     atomic.Int64
	skippedRecords atomic.Int64
}

// New creates a Server over a pool of engine shards.
func New(cfg Config) (*Server, error) {
	engines := cfg.Engines
	if len(engines) == 0 && cfg.Engine != nil {
		engines = []*exec.Engine{cfg.Engine}
	}
	if len(engines) == 0 {
		return nil, errors.New("server: Config.Engine or Config.Engines is required")
	}
	for _, e := range engines {
		if e == nil {
			return nil, errors.New("server: nil engine in Config.Engines")
		}
	}
	switch cfg.Benchmark {
	case "":
		cfg.Benchmark = "tpch"
	case "tpch", "tpcds":
	default:
		return nil, fmt.Errorf("server: unknown benchmark %q (want tpch or tpcds)", cfg.Benchmark)
	}
	if cfg.DBIdentity == "" {
		cfg.DBIdentity = cfg.Benchmark
	}
	s := &Server{
		cfg:     cfg,
		start:   time.Now(),
		fpCache: make(map[string]fpEntry),
		flights: make(map[flightKey]*flight),
	}
	s.defTenant = newTenantState(Tenant{
		Name:       "default",
		Catalog:    engines[0].Catalog(),
		DBIdentity: cfg.DBIdentity,
		Benchmark:  cfg.Benchmark,
	}, true)
	s.tenants = map[string]*tenantState{}
	s.tenantList = []*tenantState{s.defTenant}
	// Identity uniqueness is load-bearing, not cosmetic: fingerprints
	// incorporate DBIdentity, so two tenants sharing one identity would
	// silently share cache sessions — merging their quotas, stats, and
	// (with different catalogs) their adaptive state. Reject at startup.
	identities := map[string]string{cfg.DBIdentity: "default"}
	for _, t := range cfg.Tenants {
		switch {
		case t.Name == "" || t.Name == "default":
			return nil, fmt.Errorf("server: tenant name %q reserved (the primary database is tenant \"default\")", t.Name)
		case t.Catalog == nil:
			return nil, fmt.Errorf("server: tenant %q has no catalog", t.Name)
		}
		if _, dup := s.tenants[t.Name]; dup {
			return nil, fmt.Errorf("server: duplicate tenant %q", t.Name)
		}
		switch t.Benchmark {
		case "":
			t.Benchmark = "tpch"
		case "tpch", "tpcds":
		default:
			return nil, fmt.Errorf("server: tenant %q: unknown benchmark %q (want tpch or tpcds)", t.Name, t.Benchmark)
		}
		if t.DBIdentity == "" {
			t.DBIdentity = t.Name
		}
		if owner, dup := identities[t.DBIdentity]; dup {
			return nil, fmt.Errorf("server: tenant %q shares DBIdentity %q with tenant %q — identities must be unique or fingerprints collide across tenants", t.Name, t.DBIdentity, owner)
		}
		identities[t.DBIdentity] = t.Name
		tn := newTenantState(t, false)
		s.tenants[t.Name] = tn
		s.tenantList = append(s.tenantList, tn)
	}
	if cfg.Store != nil {
		s.sync = store.NewSynchronizer(cfg.Store)
	}
	for i, eng := range engines {
		prefix := "s"
		if len(engines) > 1 {
			// Namespace ids per shard so /sessions/{id} stays unique.
			prefix = fmt.Sprintf("s%d.", i)
		}
		ccfg := plancache.Config{
			MaxEntries:  cfg.CacheSize,
			IDPrefix:    prefix,
			Mutation:    cfg.Mutation,
			Convergence: cfg.Convergence,
			Staleness:   cfg.Staleness,
			Drift:       cfg.Drift,
		}
		if s.sync != nil || cfg.OnRecord != nil {
			// Write-behind persistence: the hook fires on convergence and
			// converged eviction (cold events only — never the converged
			// serving path) and just snapshots + enqueues; the synchronizer
			// goroutine does the encoding batch-wise off the request path.
			// The same record feeds the OnRecord subscriber (the federation
			// replicator), which runs its own write-behind queue.
			shardEng := eng
			ccfg.Persist = func(e *plancache.Entry) {
				tn := s.tenantByTag(e.Tenant)
				if tn == nil {
					return
				}
				snap, err := e.Session.Snapshot()
				if err != nil {
					return
				}
				// The record carries the tenant's epoch AT PERSIST TIME: a
				// session that converged against epoch-N data and is flushed
				// after a bump to N+1 was reopened by that bump (non-done, not
				// persisted) — so a done session's history always belongs to
				// the live epoch.
				rec := store.NewRecord(e.Fingerprint, tn.DBIdentity, e.Tenant, e.Query, tn.epoch.Load(), snap, shardEng.Params())
				if s.sync != nil {
					s.sync.Enqueue(rec)
				}
				if cfg.OnRecord != nil {
					cfg.OnRecord(rec)
				}
			}
		}
		sh := &shard{
			id:    i,
			eng:   eng,
			cache: plancache.New(eng, ccfg),
			sem:   make(chan struct{}, 1),
			brk:   Breaker{Threshold: cfg.BreakerFailures, Cooldown: cfg.BreakerCooldown},
		}
		if len(cfg.Faults) > 0 {
			eng.Machine().SetFaultPlan(cfg.Faults)
		}
		// Per-tenant session quotas live inside each shard's cache, tagged
		// by tenant, so the eviction policy can scope an over-quota tenant's
		// overflow to its own sessions.
		for _, tn := range s.tenantList {
			if tn.MaxSessions > 0 {
				sh.cache.SetTenantQuota(tn.tag(), tn.MaxSessions)
			}
		}
		s.shards = append(s.shards, sh)
	}
	if cfg.Store != nil {
		s.rehydrate(cfg.Store, nil)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/sessions", s.handleSessions)
	s.mux.HandleFunc("/sessions/", s.handleSessionTrace)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/admin/append", s.handleAppend)
	s.mux.HandleFunc("/admin/truncate", s.handleTruncate)
	s.mux.HandleFunc("/admin/tenants", s.handleTenants)
	s.handler = s.withRecovery(s.mux)
	return s, nil
}

// tenantByTag resolves a cache tenant tag ("" = default) to its state.
// Draining tenants still resolve: their evicted sessions persist with the
// right identity while the removal is in progress.
func (s *Server) tenantByTag(tag string) *tenantState {
	if tag == "" {
		return s.defTenant
	}
	s.tenantMu.RLock()
	defer s.tenantMu.RUnlock()
	return s.tenants[tag]
}

// rehydrate restores the persistent store's converged sessions into the
// shard caches — at startup (only == nil, before the server takes requests)
// and when a runtime-added tenant comes back (only == that tenant). Every
// record is identity-checked: its tenant must exist, the tenant's DBIdentity
// must match the record's (same data), and the engine's cost calibration
// must match the one the history was measured under (same machine model). A
// record whose dataset epoch no longer matches the live tenant's was learned
// on other data: its plan is still correct (partitions are binary-rational
// ranges) but its measurements are stale, so it rehydrates as a warm seed —
// a non-done session the request stream re-converges cheaply — never as
// served-converged. A mismatched or unrestorable record is skipped and
// counted — never merged, never fatal: the query it belonged to simply
// converges afresh.
func (s *Server) rehydrate(st *store.Store, only *tenantState) {
	for _, rec := range st.Records() {
		rec := rec
		var tn *tenantState
		if only != nil {
			if rec.Tenant != only.tag() {
				continue
			}
			tn = only
		} else if tn = s.tenantByTag(rec.Tenant); tn == nil {
			s.skippedRecords.Add(1)
			continue
		}
		if _, err := s.applyRecord(&rec, tn); err != nil {
			return // server closing mid-rehydration
		}
	}
}

// applyRecord identity-checks one convergence record and restores it into
// its owning shard's cache — the shared core of startup rehydration and
// peer-to-peer replication. It reports whether the session went live (a
// skipped record is not an error: the query it belonged to simply converges
// afresh) and errors only when the server is closing.
func (s *Server) applyRecord(rec *store.Record, tn *tenantState) (bool, error) {
	if tn.DBIdentity != rec.DBIdentity {
		s.skippedRecords.Add(1)
		return false, nil
	}
	sh := s.shardFor(rec.Fingerprint)
	if rec.HasCost && rec.CostParams != sh.eng.Params() {
		s.skippedRecords.Add(1)
		return false, nil
	}
	sess, err := rec.RestoreSession(sh.eng, s.cfg.Mutation)
	if err != nil {
		s.skippedRecords.Add(1)
		return false, nil
	}
	warm := rec.Epoch != tn.epoch.Load()
	var ok bool
	// Cache insertion under the shard's engine-ownership lock: at startup
	// it is uncontended; for runtime tenant addition and replicated records
	// it serializes against live serving on that shard.
	if err := s.do(sh, func() {
		if warm {
			ok = sess.ReopenForData(0) &&
				sh.cache.RestoreWarm(rec.Tenant, rec.Fingerprint, rec.Query, sess) != nil
		} else {
			ok = sh.cache.Restore(rec.Tenant, rec.Fingerprint, rec.Query, sess) != nil
		}
	}); err != nil {
		return false, err
	}
	switch {
	case !ok:
		s.skippedRecords.Add(1)
	case warm:
		s.warmSeeded.Add(1)
	default:
		s.rehydrated.Add(1)
	}
	return ok, nil
}

// ApplyRecord applies one replicated convergence record to the live serving
// state — the peer-to-peer equivalent of startup rehydration, with the same
// identity checks and warm-seed epoch semantics. A record whose fingerprint
// is already live in its shard's cache is left alone (the local session is
// at least as fresh). When a persistent store is configured the record is
// also written behind, so replicated plans survive this node's own restart.
// It reports whether the session went live.
func (s *Server) ApplyRecord(rec store.Record) bool {
	tn := s.tenantByTag(rec.Tenant)
	if tn == nil || tn.draining.Load() {
		s.skippedRecords.Add(1)
		return false
	}
	ok, err := s.applyRecord(&rec, tn)
	if err != nil || !ok {
		return false
	}
	if s.sync != nil {
		s.sync.Enqueue(rec)
	}
	return true
}

// Handler returns the HTTP handler tree (panic recovery outermost).
func (s *Server) Handler() http.Handler { return s.handler }

// Shards reports the pool width.
func (s *Server) Shards() int { return len(s.shards) }

// Close drains in-flight requests and releases the engines. Requests
// arriving afterwards fail with ErrClosed (503 over HTTP).
func (s *Server) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	s.closeMu.Unlock()
	s.inflight.Wait()
	if s.sync != nil {
		// Drain the write-behind queue so every session that converged
		// before shutdown is durable. The store itself stays open — its
		// opener closes it after us.
		s.sync.Close()
	}
}

// shardFor pins a fingerprint to a shard. The hash is stable for a given
// fingerprint and pool width, so a query's session never migrates — its
// adaptive convergence happens on one deterministic virtual machine.
func (s *Server) shardFor(fp string) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	h := fnv.New32a()
	h.Write([]byte(fp))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// admissionSlots hands out client indices for the admission policy: a
// request takes the lowest free slot for its duration, so the "first
// client" of §4.2.4 is whoever currently holds slot 0 on that shard.
type admissionSlots struct {
	mu    sync.Mutex
	slots []bool
	peak  int
}

func (a *admissionSlots) acquire() (idx, active int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	idx = -1
	active = 1
	for i, used := range a.slots {
		if !used && idx < 0 {
			idx = i
		}
		if used {
			active++
		}
	}
	if idx < 0 {
		idx = len(a.slots)
		a.slots = append(a.slots, true)
	} else {
		a.slots[idx] = true
	}
	if active > a.peak {
		a.peak = active
	}
	return idx, active
}

func (a *admissionSlots) release(idx int) {
	a.mu.Lock()
	a.slots[idx] = false
	a.mu.Unlock()
}

func (a *admissionSlots) peakActive() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

// QueryRequest is the POST /query body. Exactly one of Query (a named
// benchmark query) or SelectSum (an ad-hoc builder spec) must be set.
type QueryRequest struct {
	// Tenant routes the request to a named dataset (the X-APQ-Tenant header
	// is the equivalent; the body field wins). Empty or "default" queries
	// the server's primary database.
	Tenant string `json:"tenant,omitempty"`
	// Benchmark is "tpch" or "tpcds"; empty means the tenant's benchmark.
	Benchmark string `json:"benchmark,omitempty"`
	// Query is the named benchmark query number (e.g. 6 for TPC-H Q6).
	Query int `json:"query,omitempty"`
	// SelectSum builds the paper's §4.1 micro-benchmark shape ad hoc:
	// sum(column) over rows of table where lo ≤ column ≤ hi.
	SelectSum *SelectSumSpec `json:"select_sum,omitempty"`
	// Mode is "adaptive" (default: serve through the plan-session cache) or
	// "serial" (execute the serial plan cold, bypassing the cache — the
	// baseline the serving benchmark compares against).
	Mode string `json:"mode,omitempty"`
	// MaxCores is a client-declared core budget for this request (0 = no
	// limit): the execution runs as if admitted under that many cores. When
	// server-side admission control is on too, the smaller budget wins. A
	// converged session served persistently under a small client budget is
	// exactly the regime the workload-drift detector watches.
	MaxCores int `json:"max_cores,omitempty"`
	// SelectRows is SelectSum without the aggregation: fetch the matching
	// column values themselves. Its result is one column of every selected
	// row — the shape that exercises chunked APQRESULT streaming.
	SelectRows *SelectSumSpec `json:"select_rows,omitempty"`
	// Results asks for the columnar APQRESULT reply body (an Accept header
	// carrying ResultContentType is the equivalent). Off, the reply is the
	// JSON metadata only — existing clients are untouched.
	Results bool `json:"results,omitempty"`
}

// SelectSumSpec is the ad-hoc builder spec the service accepts over JSON.
type SelectSumSpec struct {
	Table  string `json:"table"`
	Column string `json:"column"`
	Lo     *int64 `json:"lo,omitempty"`
	Hi     *int64 `json:"hi,omitempty"`
}

func (sp *SelectSumSpec) pred() algebra.Range {
	switch {
	case sp.Lo != nil && sp.Hi != nil:
		return algebra.Between(*sp.Lo, *sp.Hi)
	case sp.Lo != nil:
		return algebra.AtLeast(*sp.Lo)
	case sp.Hi != nil:
		return algebra.AtMost(*sp.Hi)
	default:
		return algebra.Between(algebra.NoLow, algebra.NoHigh)
	}
}

// key renders the spec's canonical identity for fingerprinting — the spec
// fields already determine the plan, so there is no need to build and
// render a plan per request just to compute the cache key. Built with
// append, not Sprintf: this runs on every select_sum/select_rows request.
// prefix namespaces the two query shapes sharing this spec type.
func (sp *SelectSumSpec) key(prefix string) string {
	buf := make([]byte, 0, 48+len(prefix)+len(sp.Table)+len(sp.Column))
	buf = append(buf, prefix...)
	buf = append(buf, sp.Table...)
	buf = append(buf, ':')
	buf = append(buf, sp.Column...)
	buf = append(buf, ':')
	buf = appendBound(buf, sp.Lo)
	buf = append(buf, ':')
	buf = appendBound(buf, sp.Hi)
	return string(buf)
}

func appendBound(buf []byte, p *int64) []byte {
	if p == nil {
		return append(buf, '-')
	}
	return strconv.AppendInt(buf, *p, 10)
}

// fpEntry is one cached (display name, fingerprint) resolution.
type fpEntry struct {
	name, fp string
}

// maxFPCache bounds the fingerprint cache; ad-hoc specs are unbounded in
// principle, so the cache resets rather than grow without limit.
const maxFPCache = 4096

// fingerprintFor memoizes the query-identity hash for a resolution key.
func (s *Server) fingerprintFor(key string, derive func() fpEntry) fpEntry {
	s.fpMu.Lock()
	e, ok := s.fpCache[key]
	s.fpMu.Unlock()
	if ok {
		return e
	}
	e = derive()
	s.fpMu.Lock()
	if len(s.fpCache) >= maxFPCache {
		s.fpCache = make(map[string]fpEntry)
	}
	s.fpCache[key] = e
	s.fpMu.Unlock()
	return e
}

func (sp *SelectSumSpec) build() *plan.Plan {
	b := plan.NewBuilder()
	col := b.Bind(sp.Table, sp.Column)
	sel := b.Select(col, sp.pred())
	vals := b.Fetch(sel, col)
	sum := b.Aggr(algebra.AggrSum, vals)
	b.Result(sum)
	return b.Plan()
}

// buildRows is the select_rows builder: the same scan predicate, but the
// fetched values are the result — no aggregation folds them down, so a wide
// selection yields a result column spanning many wire chunks.
func (sp *SelectSumSpec) buildRows() *plan.Plan {
	b := plan.NewBuilder()
	col := b.Bind(sp.Table, sp.Column)
	sel := b.Select(col, sp.pred())
	b.Result(b.Fetch(sel, col))
	return b.Plan()
}

// QueryResponse is the POST /query reply.
type QueryResponse struct {
	Session     string `json:"session,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Query       string `json:"query"`
	// Tenant names the dataset served (omitted for the default tenant).
	Tenant string `json:"tenant,omitempty"`
	// Shard is the engine shard this query's fingerprint pins to.
	Shard int `json:"shard"`
	// State is "adapting", "converged", or "serial".
	State string `json:"state"`
	// Run is the adaptive run number this invocation executed. It is -1
	// for serial-mode requests, and for adapting requests served under a
	// throttled admission budget before the session's first adaptive run
	// (throttled invocations execute the current plan without counting as
	// adaptive runs).
	Run      int  `json:"run"`
	CacheHit bool `json:"cache_hit"`
	// LatencyNs is this invocation's virtual execution time.
	LatencyNs float64 `json:"latency_ns"`
	// BestLatencyNs is the session's global-minimum execution time so far.
	BestLatencyNs float64 `json:"best_latency_ns,omitempty"`
	// SerialLatencyNs is the session's run-0 baseline.
	SerialLatencyNs float64 `json:"serial_latency_ns,omitempty"`
	// Speedup is SerialLatencyNs / BestLatencyNs.
	Speedup float64 `json:"speedup,omitempty"`
	// DOP is the executed plan's degree of parallelism.
	DOP int `json:"dop"`
	// MaxCores is the admission-control budget applied (0 = unlimited).
	MaxCores  int `json:"max_cores"`
	NumValues int `json:"num_values"`
	// Degraded marks an invocation served frozen by an open shard breaker:
	// the learned plan executed, but no adaptation or staleness feedback
	// happened.
	Degraded bool `json:"degraded,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ioBuf is the pooled per-request I/O state: one buffer for draining the
// request body before decoding and for staging the JSON reply, plus an
// encoder bound to it. Request decoding dominates the serve hot path at
// small scale factors (ROADMAP), and json.NewDecoder/NewEncoder per request
// re-allocated both every time; the pool makes the HTTP framing
// allocation-free in steady state.
type ioBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var ioBufPool = sync.Pool{New: func() any {
	b := &ioBuf{}
	b.enc = json.NewEncoder(&b.buf)
	return b
}}

// maxRequestBody bounds POST bodies (query specs are tiny); maxPooledBuf
// keeps an oversized buffer (huge trace reply, rejected large body) from
// being retained by the pool forever.
const (
	maxRequestBody = 1 << 20
	maxPooledBuf   = 1 << 20
)

func getIOBuf() *ioBuf {
	b := ioBufPool.Get().(*ioBuf)
	b.buf.Reset()
	return b
}

func putIOBuf(b *ioBuf) {
	if b.buf.Cap() <= maxPooledBuf {
		ioBufPool.Put(b)
	}
}

// reply stages v through the pooled buffer and writes it in one call.
func (b *ioBuf) reply(w http.ResponseWriter, code int, v any) {
	b.buf.Reset()
	if err := b.enc.Encode(v); err != nil {
		// Even the encode-failure fallback speaks the API's content type:
		// http.Error would answer text/plain, and clients that unmarshal
		// every body (the documented contract) would choke on the one reply
		// shape they can't parse.
		writeJSONError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if code != http.StatusOK {
		w.WriteHeader(code)
	}
	w.Write(b.buf.Bytes())
}

// retryAfter renders the shed reply's backoff hint: 1–3 seconds, jittered,
// so clients shed in one burst don't all come back on the same tick and
// re-create the overload they were shed from.
func (s *Server) retryAfter() string {
	r := s.randFn
	if r == nil {
		r = rand.Float64
	}
	secs := 1 + int(r()*3)
	if secs > 3 {
		secs = 3
	}
	return strconv.Itoa(secs)
}

func (s *Server) writeErr(w http.ResponseWriter, code int, err error) {
	b := getIOBuf()
	defer putIOBuf(b)
	s.writeErrBuf(b, w, code, err)
}

// writeErrBuf is writeErr over a caller-held ioBuf: handleQuery reuses its
// body buffer for the reply instead of checking out a second one per
// request.
func (s *Server) writeErrBuf(b *ioBuf, w http.ResponseWriter, code int, err error) {
	s.errCount.Add(1)
	b.reply(w, code, errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	b := getIOBuf()
	defer putIOBuf(b)
	b.reply(w, http.StatusOK, v)
}

// writeJSONError writes an errorResponse without a pooled buffer — the
// last-resort error path for when staging the real reply itself failed.
func writeJSONError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	msg, merr := json.Marshal(errorResponse{Error: err.Error()})
	if merr != nil {
		msg = []byte(`{"error":"internal error"}`)
	}
	w.Write(append(msg, '\n'))
}

// fpCacheKey namespaces a fingerprint-cache key by tenant. The default
// tenant keeps the bare key (no per-request concatenation on the
// single-tenant hot path); named tenants prefix their name.
func (s *Server) fpCacheKey(tn *tenantState, key string) string {
	if tn.def {
		return key
	}
	return tn.Name + "\x00" + key
}

// resolve maps a request to (query name, fingerprint, plan builder) against
// its tenant's dataset. The builder is deferred: plancache only calls it on
// a fingerprint miss, so the hot cached path never constructs a plan.
func (s *Server) resolve(tn *tenantState, req *QueryRequest) (name, fp string, build func() (*plan.Plan, error), err error) {
	bench := req.Benchmark
	if bench == "" {
		bench = tn.Benchmark
	}
	if bench != tn.Benchmark {
		return "", "", nil, fmt.Errorf("tenant %q serves %q, not %q", tn.displayName(), tn.Benchmark, bench)
	}
	if req.SelectSum != nil || req.SelectRows != nil {
		if req.Query != 0 || (req.SelectSum != nil && req.SelectRows != nil) {
			return "", "", nil, errors.New("set exactly one of query, select_sum, or select_rows")
		}
		shape, sel := "select_sum", req.SelectSum
		if req.SelectRows != nil {
			shape, sel = "select_rows", req.SelectRows
		}
		if sel.Table == "" || sel.Column == "" {
			return "", "", nil, fmt.Errorf("%s needs table and column", shape)
		}
		// Validate against the tenant's live catalog before the plan can
		// reach the cache: a bad spec must be a 400, not a cache insertion
		// (and possible eviction of a healthy session) followed by an
		// execution failure. Catalogs are immutable once published, so the
		// loaded pointer needs no lock.
		tbl, err := tn.curCatalog().Table(sel.Table)
		if err != nil {
			return "", "", nil, err
		}
		if _, err := tbl.Column(sel.Column); err != nil {
			return "", "", nil, err
		}
		spec, rows := *sel, req.SelectRows != nil
		e := s.fingerprintFor(s.fpCacheKey(tn, spec.key(shape+":")), func() fpEntry {
			return fpEntry{
				name: fmt.Sprintf("%s(%s.%s)", shape, spec.Table, spec.Column),
				fp:   plancache.Fingerprint(tn.DBIdentity, spec.key(shape+":")),
			}
		})
		if rows {
			return e.name, e.fp,
				func() (*plan.Plan, error) { return spec.buildRows(), nil }, nil
		}
		return e.name, e.fp,
			func() (*plan.Plan, error) { return spec.build(), nil }, nil
	}
	var (
		lookup  func(int) (*plan.Plan, error)
		numbers []int
	)
	switch bench {
	case "tpch":
		lookup, numbers = tpch.Query, tpch.QueryNumbers()
	case "tpcds":
		lookup, numbers = tpcds.Query, tpcds.QueryNumbers()
	}
	n := req.Query
	if n == 0 {
		return "", "", nil, errors.New("missing query number")
	}
	// Validate by number only — building the plan here would put full plan
	// construction on every cached request's path.
	if !slices.Contains(numbers, n) {
		return "", "", nil, fmt.Errorf("%s: query %d not implemented", bench, n)
	}
	e := s.fingerprintFor(s.fpCacheKey(tn, bench+":q"+strconv.Itoa(n)), func() fpEntry {
		name := fmt.Sprintf("%s:q%d", bench, n)
		return fpEntry{name: name, fp: plancache.Fingerprint(tn.DBIdentity, name)}
	})
	return e.name, e.fp,
		func() (*plan.Plan, error) { return lookup(n) }, nil
}

// RouteFingerprint resolves a request to its routing fingerprint without
// executing anything — the key the federation coordinator hashes to pick an
// owning node. hdrTenant is the X-APQ-Tenant header value ("" = none; the
// body field wins, same precedence as serving). Resolution failures (unknown
// tenant, malformed spec) are not routing decisions: the caller serves such
// requests locally so the canonical error reply comes from the full serve
// path.
func (s *Server) RouteFingerprint(hdrTenant string, req *QueryRequest) (string, error) {
	name := req.Tenant
	if name == "" {
		name = hdrTenant
	}
	tn, err := s.tenantByName(name)
	if err != nil {
		return "", err
	}
	_, fp, _, err := s.resolve(tn, req)
	return fp, err
}

// FrozenHeader forces a request to serve from learned state only (no
// adaptation, no staleness feedback); ForwardedHeader marks a request
// already routed by a peer's federation coordinator — the receiving node
// must serve it locally, never re-route it (no forwarding loops). Both are
// coordinator-to-node headers, exported for internal/cluster.
const (
	FrozenHeader    = "X-APQ-Frozen"
	ForwardedHeader = "X-APQ-Forwarded"
)

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	b := getIOBuf()
	defer putIOBuf(b)
	if _, err := b.buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBody)); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		s.writeErrBuf(b, w, code, fmt.Errorf("bad request body: %w", err))
		return
	}
	var req QueryRequest
	if err := json.Unmarshal(b.buf.Bytes(), &req); err != nil {
		s.writeErrBuf(b, w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	resp, vals, derr := s.dispatch(r.Context(), r.Header.Get("X-APQ-Tenant"), &req, r.Header.Get(FrozenHeader) == "1")
	if derr != nil {
		if derr.retry {
			// Shed and over-quota rejections both carry the jittered backoff
			// hint: clients bounced in one burst should not return in one.
			w.Header().Set("Retry-After", s.retryAfter())
		}
		s.writeErrBuf(b, w, derr.code, derr.err)
		return
	}
	if wantsResult(r.Header.Get("Accept"), &req) {
		// Columnar reply: the JSON metadata framed inside APQRESULT, then
		// every result value streamed chunk-by-chunk straight from the
		// published immutable buffers (result.go). Errors above still went
		// out as JSON — only success bodies change representation.
		meta, err := json.Marshal(&resp)
		if err != nil {
			s.writeErrBuf(b, w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", ResultContentType)
		n, _ := writeResult(w, meta, vals)
		// A mid-stream write error means the client hung up; the bytes that
		// made it out still count.
		s.resultBytes.Add(n)
		return
	}
	b.reply(w, http.StatusOK, resp)
}

// dispatchErr is a serve-path failure with its HTTP mapping: the status code
// and whether the reply should carry a Retry-After backoff hint.
type dispatchErr struct {
	code  int
	err   error
	retry bool
}

// flightKey identifies requests that may share one engine run: the
// fingerprint (which already encodes tenant, dataset identity, and the full
// query spec), the frozen-fidelity demand, and the client core budget —
// requests differing in any of these must not share a result.
type flightKey struct {
	fp     string
	frozen bool
	cores  int
}

// flight is one in-flight adaptive engine run. Waiters block on done, then
// share the leader's published result. The sharing is safe by the exec
// ownership contract: values reachable from a result instruction are
// allocated fresh per run and never pooled or rewritten, so a concurrent
// Evict/Retire on the session recycles only arenas and schedules, never the
// buffers waiters hold.
type flight struct {
	done chan struct{}
	resp QueryResponse
	vals []exec.Value
	derr *dispatchErr
}

// dispatch runs one decoded query request through the whole serve path below
// HTTP framing: tenant routing and admission, fingerprint resolution, shard
// pinning, single-flight coalescing, breaker fidelity, and engine
// invocation. forceFrozen overrides the breaker decision to serve learned
// state only (the FrozenHeader fidelity).
// The returned values are the query's published result (shared, immutable;
// owned per the exec escape contract) — callers stream them as APQRESULT
// when the request negotiated it.
func (s *Server) dispatch(ctx context.Context, hdrTenant string, req *QueryRequest, forceFrozen bool) (QueryResponse, []exec.Value, *dispatchErr) {
	tenantName := req.Tenant
	if tenantName == "" {
		tenantName = hdrTenant
	}
	tn, err := s.tenantByName(tenantName)
	if err != nil {
		return QueryResponse{}, nil, &dispatchErr{code: http.StatusNotFound, err: err}
	}
	// The in-flight quota rejects before any engine work queues: a tenant
	// over its concurrency budget fails fast with 429 instead of stacking
	// requests on shard locks other tenants are waiting for. A tenant that
	// started draining between routing and admission is 404 — to the client
	// it no longer exists.
	if err := tn.acquire(); err != nil {
		tn.noteErr()
		code, retry := http.StatusTooManyRequests, true
		if errors.Is(err, errTenantDraining) {
			code, retry = http.StatusNotFound, false
		}
		return QueryResponse{}, nil, &dispatchErr{code: code, err: err, retry: retry}
	}
	defer tn.release()
	name, fp, build, err := s.resolve(tn, req)
	if err != nil {
		tn.noteErr()
		return QueryResponse{}, nil, &dispatchErr{code: http.StatusBadRequest, err: err}
	}
	s.queryCount.Add(1)

	// Shard pinning: the fingerprint decides the engine replica, so a
	// session's adaptive state lives (and converges deterministically) on
	// exactly one simulated machine. Tenants share the pool — the
	// fingerprint already incorporates the tenant's dataset identity.
	sh := s.shardFor(fp)

	// The request context carries the per-request deadline into shard
	// dispatch: a request that cannot reach its engine in time 503s instead
	// of queueing forever (the client's own cancellation flows through too).
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}

	switch req.Mode {
	case "", "adaptive":
		// Single-flight coalescing: when the shard is already busy (a request
		// holds or waits on its engine lock), an identical request joins the
		// in-flight run instead of queueing behind it — N concurrent clients
		// on one fingerprint cost one engine run, and every waiter shares the
		// leader's published immutable result. The busy gate keeps the
		// sequential hot path at one atomic load and zero allocations, and
		// means the first overlapping pair still runs twice (runs per burst ≈
		// contenders at the instant of arrival, far below total requests).
		if sh.waiting.Load() > 0 {
			k := flightKey{fp: fp, frozen: forceFrozen, cores: req.MaxCores}
			s.flightMu.Lock()
			if f, ok := s.flights[k]; ok {
				s.flightMu.Unlock()
				s.coalesced.Add(1)
				select {
				case <-f.done:
					if f.derr != nil {
						tn.noteErr()
						return QueryResponse{}, nil, f.derr
					}
					return f.resp, f.vals, nil
				case <-ctx.Done():
					// The waiter's own deadline expired before the leader
					// finished — same surface as a doCtx deadline expiry.
					s.res.deadlineExpiries.Add(1)
					tn.noteErr()
					return QueryResponse{}, nil, &dispatchErr{code: http.StatusServiceUnavailable, err: fmt.Errorf("server: %w", ctx.Err())}
				}
			}
			f := &flight{
				done: make(chan struct{}),
				// Pre-arm the failure outcome: if the leader panics out of
				// serveAdaptive, waiters must see an error, not a zero reply.
				derr: &dispatchErr{code: http.StatusInternalServerError, err: errors.New("server: coalesced engine run failed")},
			}
			s.flights[k] = f
			s.flightMu.Unlock()
			defer func() {
				s.flightMu.Lock()
				delete(s.flights, k)
				s.flightMu.Unlock()
				close(f.done)
			}()
			f.resp, f.vals, f.derr = s.serveAdaptive(ctx, tn, sh, req, fp, name, build, forceFrozen)
			return f.resp, f.vals, f.derr
		}
		return s.serveAdaptive(ctx, tn, sh, req, fp, name, build, forceFrozen)
	case "serial":
		// Serial mode is the cold baseline the serving benchmark compares
		// against — coalescing it would fabricate the very sharing the
		// baseline exists to exclude, so it always runs.
		opts := s.jobOpts(tn, sh, req)
		if s.cfg.Admission {
			defer sh.adm.release(opts.slot)
		}
		var (
			vals []exec.Value
			prof *exec.Profile
		)
		doErr := s.doCtx(ctx, sh, func() {
			var p *plan.Plan
			if p, err = build(); err == nil {
				vals, prof, err = sh.eng.ExecuteOpts(p, opts.JobOptions)
				// One-shot plan: retire it immediately so its compiled
				// schedule doesn't churn the engine cache and its buffers
				// feed the next cold request through the recycler. Result
				// values stay valid: they escape per the exec contract.
				sh.eng.Retire(p)
			}
		})
		if doErr != nil {
			tn.noteErr()
			return QueryResponse{}, nil, &dispatchErr{code: http.StatusServiceUnavailable, err: doErr, retry: sheddable(doErr)}
		}
		if err != nil {
			tn.noteErr()
			return QueryResponse{}, nil, &dispatchErr{code: http.StatusInternalServerError, err: err}
		}
		return QueryResponse{
			Query:     name,
			Tenant:    tn.tag(),
			Shard:     sh.id,
			State:     "serial",
			Run:       -1,
			LatencyNs: prof.Makespan(),
			DOP:       1,
			MaxCores:  opts.MaxCores,
			NumValues: len(vals),
		}, vals, nil
	default:
		tn.noteErr()
		return QueryResponse{}, nil, &dispatchErr{code: http.StatusBadRequest, err: fmt.Errorf("unknown mode %q", req.Mode)}
	}
}

// jobOptions is exec.JobOptions plus the admission slot that produced its
// core budget (slot is only meaningful when Config.Admission is on; the
// caller releases it after the engine run).
type jobOptions struct {
	exec.JobOptions
	slot int
}

// jobOpts binds a request's execution options: the tenant's catalog, the
// admission-control core budget (acquiring an admission slot the caller must
// release), and the client's own core cap — the smaller budget wins.
func (s *Server) jobOpts(tn *tenantState, sh *shard, req *QueryRequest) jobOptions {
	opts := jobOptions{JobOptions: exec.JobOptions{Catalog: tn.jobCatalog()}}
	if s.cfg.Admission {
		idx, active := sh.adm.acquire()
		opts.slot = idx
		cores := sh.eng.Machine().Config().LogicalCores()
		opts.MaxCores = vectorwise.AdmissionMaxCores(idx, active, cores)
		if s.admitHook != nil {
			s.admitHook()
		}
	}
	if req.MaxCores > 0 && (opts.MaxCores == 0 || req.MaxCores < opts.MaxCores) {
		opts.MaxCores = req.MaxCores
	}
	return opts
}

// serveAdaptive runs one adaptive invocation on its shard: admission,
// breaker fidelity, engine run, response assembly. Exactly one goroutine
// runs this per coalesced flight — waiters never reach it.
func (s *Server) serveAdaptive(ctx context.Context, tn *tenantState, sh *shard, req *QueryRequest, fp, name string, build func() (*plan.Plan, error), forceFrozen bool) (QueryResponse, []exec.Value, *dispatchErr) {
	opts := s.jobOpts(tn, sh, req)
	if s.cfg.Admission {
		defer sh.adm.release(opts.slot)
	}
	// The shard's health breaker decides the invocation's fidelity: a
	// degraded shard serves frozen (learned plans, no exploration) until
	// its cooldown admits a half-open probe. A forced-frozen request
	// (FrozenHeader) is the degraded mode by demand — it never feeds the
	// breaker, exactly like breaker-frozen servings.
	mode := BreakerNormal
	if forceFrozen {
		mode = BreakerFrozen
	} else if s.cfg.BreakerFailures > 0 {
		mode = sh.brk.Admit()
	}
	var (
		res *plancache.Result
		sum core.Summary
		err error
	)
	doErr := s.doCtx(ctx, sh, func() {
		if mode == BreakerFrozen {
			res, err = sh.cache.InvokeTenantFrozen(tn.tag(), fp, name, build, opts.JobOptions)
		} else {
			res, err = sh.cache.InvokeTenant(tn.tag(), fp, name, build, opts.JobOptions)
		}
		if err == nil {
			// Snapshot under the shard lock: another request may step
			// this session the moment we release it.
			sum = res.Entry.Session.Summary()
		}
	})
	if doErr != nil {
		if s.cfg.BreakerFailures > 0 {
			// Shed, deadline-expired, or closed: the shard never answered
			// at full fidelity — a probe that hit this stays open.
			sh.brk.Record(mode, true)
		}
		tn.noteErr()
		return QueryResponse{}, nil, &dispatchErr{code: http.StatusServiceUnavailable, err: doErr, retry: sheddable(doErr)}
	}
	if err != nil {
		if s.cfg.BreakerFailures > 0 {
			sh.brk.Record(mode, true)
		}
		tn.noteErr()
		return QueryResponse{}, nil, &dispatchErr{code: http.StatusInternalServerError, err: err}
	}
	if s.cfg.BreakerFailures > 0 {
		slow := s.cfg.SlowFactor > 0 && sum.SerialNs > 0 &&
			res.Invocation.LatencyNs > s.cfg.SlowFactor*sum.SerialNs
		sh.brk.Record(mode, slow)
	}
	resp := QueryResponse{
		Session:         res.Entry.ID,
		Fingerprint:     fp,
		Query:           name,
		Tenant:          tn.tag(),
		Shard:           sh.id,
		State:           "adapting",
		Run:             res.Invocation.Run,
		CacheHit:        !res.Created,
		LatencyNs:       res.Invocation.LatencyNs,
		BestLatencyNs:   sum.GMENs,
		SerialLatencyNs: sum.SerialNs,
		Speedup:         sum.Speedup(),
		DOP:             res.Invocation.DOP,
		MaxCores:        opts.MaxCores,
		NumValues:       len(res.Values),
	}
	if res.Invocation.Converged {
		resp.State = "converged"
	}
	resp.Degraded = res.Invocation.Frozen
	return resp, res.Values, nil
}

// SessionInfo is one GET /sessions list element.
type SessionInfo struct {
	Session     string  `json:"session"`
	Fingerprint string  `json:"fingerprint"`
	Query       string  `json:"query"`
	Tenant      string  `json:"tenant,omitempty"`
	Shard       int     `json:"shard"`
	State       string  `json:"state"`
	Runs        int     `json:"runs"`
	Hits        int64   `json:"hits"`
	BestNs      float64 `json:"best_latency_ns"`
	SerialNs    float64 `json:"serial_latency_ns"`
	Speedup     float64 `json:"speedup"`
	BestDOP     int     `json:"best_dop"`
}

func sessionInfo(sh *shard, e *plancache.Entry) SessionInfo {
	rep := e.Session.Report()
	info := SessionInfo{
		Session:     e.ID,
		Fingerprint: e.Fingerprint,
		Query:       e.Query,
		Tenant:      e.Tenant,
		Shard:       sh.id,
		State:       "adapting",
		Runs:        rep.TotalRuns,
		Hits:        e.Hits(),
		BestNs:      rep.GMENs,
		SerialNs:    rep.SerialNs,
		Speedup:     rep.Speedup(),
	}
	if rep.BestPlan != nil {
		info.BestDOP = rep.BestPlan.MaxDOP()
	}
	if e.Session.Done() {
		info.State = "converged"
	}
	return info
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	// ?tenant= scopes the listing to one tenant's sessions ("default" = the
	// primary database). Absent means every tenant; an unknown name is the
	// same 404 POST /query would give it.
	filter := ""
	filtered := false
	if v, ok := r.URL.Query()["tenant"]; ok {
		filtered = true
		name := ""
		if len(v) > 0 {
			name = v[0]
		}
		tn, err := s.tenantFor(r, name)
		if err != nil {
			s.writeErr(w, http.StatusNotFound, err)
			return
		}
		filter = tn.tag()
	}
	out := []SessionInfo{}
	for _, sh := range s.shards {
		// Report() walks session state that executions on this shard
		// mutate; read it under the shard lock.
		if err := s.do(sh, func() {
			for _, e := range sh.cache.List() {
				if filtered && e.Tenant != filter {
					continue
				}
				out = append(out, sessionInfo(sh, e))
			}
		}); err != nil {
			s.writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
	}
	writeJSON(w, out)
}

// TraceResponse is the GET /sessions/{id}/trace reply: the session's full
// convergence trace (Figure 18 quantities) plus the served-invocation log.
type TraceResponse struct {
	SessionInfo
	// History is the per-run execution time, index = run number.
	History []float64 `json:"history_ns"`
	// GMERun is the run that achieved the global minimum.
	GMERun int `json:"gme_run"`
	// Outliers are runs forgiven as noise peaks (§3.3.3).
	Outliers []int `json:"outliers,omitempty"`
	// Invocations logs every served request against this session.
	Invocations []plancache.Invocation `json:"invocations"`
}

func (s *Server) handleSessionTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/sessions/")
	id, tail, ok := strings.Cut(rest, "/")
	if !ok || tail != "trace" || id == "" {
		s.writeErr(w, http.StatusNotFound, fmt.Errorf("no route %q (want /sessions/{id}/trace)", r.URL.Path))
		return
	}
	var (
		resp  TraceResponse
		found bool
	)
	for _, sh := range s.shards {
		if sh.cache.Get(id) == nil {
			continue
		}
		if err := s.do(sh, func() {
			e := sh.cache.Get(id)
			if e == nil {
				return // evicted between lookup and loop entry
			}
			found = true
			rep := e.Session.Report()
			resp = TraceResponse{
				SessionInfo: sessionInfo(sh, e),
				History:     rep.History,
				GMERun:      rep.GMERun,
				Outliers:    rep.Outliers,
				Invocations: e.Trace(),
			}
		}); err != nil {
			s.writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
		break
	}
	if !found {
		s.writeErr(w, http.StatusNotFound, fmt.Errorf("unknown session %q", id))
		return
	}
	writeJSON(w, resp)
}

// ShardStats is one shard's slice of the GET /stats reply.
type ShardStats struct {
	Shard        int             `json:"shard"`
	VirtualNowNs float64         `json:"virtual_now_ns"`
	PeakClients  int             `json:"peak_concurrent_clients"`
	Cache        plancache.Stats `json:"cache"`
	// Recycler reports the shard engine's size-classed buffer pool (hit and
	// miss counters per size class); Compile counts full vs incremental
	// plan compilations. Both are atomic-counter snapshots.
	Recycler exec.RecyclerStats `json:"recycler"`
	Compile  exec.CompileStats  `json:"compile"`
	// Faults reports the shard machine's fault-injection counters.
	Faults sim.FaultStats `json:"faults"`
}

// StatsResponse is the GET /stats reply. Cache counters are aggregated
// across shards; VirtualNowNs and PeakClients report the busiest shard.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	VirtualNowNs  float64 `json:"virtual_now_ns"`
	Benchmark     string  `json:"benchmark"`
	DBIdentity    string  `json:"db_identity"`
	QueryRequests int64   `json:"query_requests"`
	Errors        int64   `json:"errors"`
	// CoalescedRequests counts /query requests served by joining another
	// identical in-flight engine run (single-flight coalescing) instead of
	// running the engine themselves; ResultBytesSent counts APQRESULT
	// payload bytes written to clients.
	CoalescedRequests int64           `json:"coalesced_requests"`
	ResultBytesSent   int64           `json:"result_bytes_sent"`
	Admission         bool            `json:"admission"`
	PeakClients       int             `json:"peak_concurrent_clients"`
	Cores             int             `json:"logical_cores"`
	Shards            int             `json:"shards"`
	Cache             plancache.Stats `json:"cache"`
	PerShard          []ShardStats    `json:"per_shard"`
	// Tenants breaks the serving counters down per tenant (default tenant
	// first, then config order); cache counters aggregate across shards.
	Tenants []TenantStatsInfo `json:"tenants"`
	// Store reports the persistent convergence store (absent when the
	// server runs without one).
	Store *StoreStatsInfo `json:"store,omitempty"`
	// Resilience aggregates fault-injection and overload-hardening counters
	// (resilience.go).
	Resilience ResilienceStats `json:"resilience"`
	// Lifecycle counts admin mutations and tenant churn (admin.go).
	Lifecycle LifecycleStats `json:"lifecycle"`
	// Cluster is the federation coordinator's block (Config.ClusterStats;
	// absent on an unfederated daemon).
	Cluster any `json:"cluster,omitempty"`
}

// LifecycleStats is the GET /stats "lifecycle" block: counters for the
// /admin mutation and tenant-lifecycle surface.
type LifecycleStats struct {
	// TenantsAdded / TenantsRemoved count runtime tenant churn.
	TenantsAdded   int64 `json:"tenants_added"`
	TenantsRemoved int64 `json:"tenants_removed"`
	// Appends / Deletes count dataset mutations (each bumped an epoch).
	Appends int64 `json:"appends"`
	Deletes int64 `json:"deletes"`
}

// StoreStatsInfo is the /stats view of the persistent convergence store:
// the store file's own counters plus the serving-side rehydration and
// write-behind state.
type StoreStatsInfo struct {
	store.Stats
	// RehydratedSessions counts sessions restored into the shard caches
	// (startup plus runtime tenant additions); WarmSeededSessions counts
	// records whose dataset epoch mismatched the live tenant's and came
	// back as warm seeds instead of served-converged; SkippedRecords counts
	// records refused by the identity, calibration, or integrity checks.
	RehydratedSessions int64 `json:"rehydrated_sessions"`
	WarmSeededSessions int64 `json:"warm_seeded_sessions,omitempty"`
	SkippedRecords     int64 `json:"skipped_records,omitempty"`
	// WriteBehindQueueDepth is the synchronizer backlog (records accepted
	// but not yet durable); RecordsWritten counts durable write-behind
	// records since start.
	WriteBehindQueueDepth int `json:"write_behind_queue_depth"`
	RecordsWritten        int `json:"records_written"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	resp := StatsResponse{
		UptimeSeconds:     time.Since(s.start).Seconds(),
		Benchmark:         s.cfg.Benchmark,
		DBIdentity:        s.cfg.DBIdentity,
		QueryRequests:     s.queryCount.Load(),
		Errors:            s.errCount.Load(),
		CoalescedRequests: s.coalesced.Load(),
		ResultBytesSent:   s.resultBytes.Load(),
		Admission:         s.cfg.Admission,
		Cores:             s.shards[0].eng.Machine().Config().LogicalCores(),
		Shards:            len(s.shards),
	}
	// Per-tenant rows start from the tenant request counters; shard-cache
	// slices merge in below under each shard's lock. The list is copied
	// under tenantMu — lifecycle operations mutate it at runtime.
	s.tenantMu.RLock()
	tenantList := slices.Clone(s.tenantList)
	s.tenantMu.RUnlock()
	tenantIdx := make(map[string]int, len(tenantList))
	for i, tn := range tenantList {
		resp.Tenants = append(resp.Tenants, tn.statsInfo())
		tenantIdx[tn.tag()] = i
	}
	for _, sh := range s.shards {
		st := ShardStats{
			Shard:       sh.id,
			PeakClients: sh.adm.peakActive(),
			// Atomic counters: readable without the engine-ownership lock.
			Recycler: sh.eng.RecyclerStats(),
			Compile:  sh.eng.CompileStats(),
		}
		var tstats map[string]plancache.Stats
		// The virtual clock, cache stats, and fault counters read state that
		// executions on this shard mutate; read them under the shard lock.
		if err := s.do(sh, func() {
			st.VirtualNowNs = sh.eng.Machine().Now()
			st.Cache = sh.cache.Stats()
			st.Faults = sh.eng.Machine().Faults()
			tstats = sh.cache.TenantStats()
		}); err != nil {
			// The server is closing mid-snapshot.
			s.writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
		for tag, tst := range tstats {
			if i, ok := tenantIdx[tag]; ok {
				tc := &resp.Tenants[i].Cache
				tc.Entries += tst.Entries
				tc.Hits += tst.Hits
				tc.Misses += tst.Misses
				tc.Evictions += tst.Evictions
				tc.Converged += tst.Converged
				tc.Rehydrated += tst.Rehydrated
				tc.Reconvergences += tst.Reconvergences
				tc.DataReopens += tst.DataReopens
				tc.DriftReopens += tst.DriftReopens
				tc.WarmSeeds += tst.WarmSeeds
			}
		}
		resp.PerShard = append(resp.PerShard, st)
		resp.Cache.Entries += st.Cache.Entries
		resp.Cache.Hits += st.Cache.Hits
		resp.Cache.Misses += st.Cache.Misses
		resp.Cache.Evictions += st.Cache.Evictions
		resp.Cache.Converged += st.Cache.Converged
		resp.Cache.Rehydrated += st.Cache.Rehydrated
		resp.Cache.Reconvergences += st.Cache.Reconvergences
		resp.Cache.DataReopens += st.Cache.DataReopens
		resp.Cache.DriftReopens += st.Cache.DriftReopens
		resp.Cache.WarmSeeds += st.Cache.WarmSeeds
		if st.VirtualNowNs > resp.VirtualNowNs {
			resp.VirtualNowNs = st.VirtualNowNs
		}
		if st.PeakClients > resp.PeakClients {
			resp.PeakClients = st.PeakClients
		}
		resp.Resilience.FaultsInjected += st.Faults.Injected
		resp.Resilience.CoresLost += st.Faults.CoresLost
		brState, brTrips, brFails := sh.brk.Snapshot()
		resp.Resilience.Breakers = append(resp.Resilience.Breakers, BreakerInfo{
			Shard: sh.id, State: brState.String(), Trips: brTrips, Failures: brFails,
		})
	}
	resp.Resilience.Reconvergences = resp.Cache.Reconvergences
	resp.Resilience.DeadlineExpiries = s.res.deadlineExpiries.Load()
	resp.Resilience.ShedRequests = s.res.shed.Load()
	resp.Resilience.PanicsRecovered = s.res.panics.Load()
	if s.cfg.Store != nil {
		resp.Store = &StoreStatsInfo{
			Stats:                 s.cfg.Store.Stats(),
			RehydratedSessions:    s.rehydrated.Load(),
			WarmSeededSessions:    s.warmSeeded.Load(),
			SkippedRecords:        s.skippedRecords.Load(),
			WriteBehindQueueDepth: s.sync.QueueDepth(),
			RecordsWritten:        s.sync.Written(),
		}
	}
	resp.Lifecycle = LifecycleStats{
		TenantsAdded:   s.life.tenantsAdded.Load(),
		TenantsRemoved: s.life.tenantsRemoved.Load(),
		Appends:        s.life.appends.Load(),
		Deletes:        s.life.deletes.Load(),
	}
	if s.cfg.ClusterStats != nil {
		resp.Cluster = s.cfg.ClusterStats()
	}
	writeJSON(w, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.closeMu.RLock()
	closed := s.closed
	s.closeMu.RUnlock()
	resp := HealthResponse{OK: !closed}
	for _, sh := range s.shards {
		st, _, _ := sh.brk.Snapshot()
		degraded := st != BreakerClosed
		if degraded {
			resp.OK = false
		}
		resp.Shards = append(resp.Shards, ShardHealth{
			Shard: sh.id, Breaker: st.String(), Degraded: degraded,
		})
	}
	if s.sync != nil {
		depth := s.sync.QueueDepth()
		resp.StoreQueueDepth = &depth
	}
	code := http.StatusOK
	if !resp.OK {
		code = http.StatusServiceUnavailable
	}
	b := getIOBuf()
	defer putIOBuf(b)
	b.reply(w, code, resp)
}
