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
// per-client core budget (exec.AdmissionMaxCores, §4.2.4) — the first
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
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/plancache"
	"repro/internal/sim"
	"repro/internal/store"
)

// ErrClosed reports a request against a server that has shut down.
var ErrClosed = errors.New("server: closed")

// Config configures a Server.
type Config struct {
	// Engines is the shard pool: one engine replica per shard, each with its
	// own simulated machine over the shared catalog (one engine = the
	// one-shard daemon). The server takes ownership: all executions must go
	// through it.
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
	// pool; the Engines catalog remains the default tenant.
	Tenants []Tenant
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
	// (plancache.Config.Staleness).
	Staleness bool
	// Drift arms workload-drift detection on every shard cache: converged
	// sessions whose serve latency no longer matches the query mix they
	// converged under proactively reopen at the observed budget
	// (plancache.Config.Drift).
	Drift bool
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
	cfg    Config
	shards []*shard
	mux    *http.ServeMux
	start  time.Time

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
	// under handle's panic recovery, before the handler — the seam
	// panic-path tests trip deliberately.
	admitHook func()
	panicHook func(*http.Request)

	// res holds the overload-hardening counters (resilience.go).
	res struct {
		deadlineExpiries atomic.Int64
		shed             atomic.Int64
		panics           atomic.Int64
	}

	// sync is the write-behind path to cfg.Store (nil without a store);
	// skippedRecords counts the records rehydration and replication refuse
	// (atomic: runtime tenant addition rehydrates concurrently with /stats
	// reads). The shard caches count the restores that went live.
	sync           *store.Synchronizer
	skippedRecords atomic.Int64
}

// New creates a Server over a pool of engine shards.
func New(cfg Config) (*Server, error) {
	engines := cfg.Engines
	if len(engines) == 0 {
		return nil, errors.New("server: Config.Engines is required")
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
		tenants: map[string]*tenantState{},
		fpCache: make(map[string]fpEntry),
		flights: make(map[flightKey]*flight),
	}
	s.defTenant = newTenantState(Tenant{
		Name:       "default",
		Catalog:    engines[0].Catalog(),
		DBIdentity: cfg.DBIdentity,
		Benchmark:  cfg.Benchmark,
	}, true)
	s.tenantList = []*tenantState{s.defTenant}
	for _, t := range cfg.Tenants {
		if _, err := s.linkTenant(t); err != nil {
			return nil, err
		}
	}
	if cfg.Store != nil {
		s.sync = store.NewSynchronizer(cfg.Store.PutBatch)
	}
	for i, eng := range engines {
		prefix := "s"
		if len(engines) > 1 {
			// Namespace ids per shard so /sessions/{id} stays unique.
			prefix = fmt.Sprintf("s%d.", i)
		}
		ccfg := plancache.Config{
			MaxEntries: cfg.CacheSize,
			IDPrefix:   prefix,
			Staleness:  cfg.Staleness,
			Drift:      cfg.Drift,
		}
		if s.sync != nil || cfg.OnRecord != nil {
			ccfg.Persist = s.persistHook(eng)
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
	s.handle("/query", http.MethodPost, s.handleQuery)
	s.handle("/sessions", http.MethodGet, s.handleSessions)
	s.handle("/sessions/", http.MethodGet, s.handleSessionTrace)
	s.handle("/stats", http.MethodGet, s.handleStats)
	s.handle("/healthz", "", s.handleHealthz)
	s.handle("/admin/append", http.MethodPost, s.handleAppend)
	s.handle("/admin/truncate", http.MethodPost, s.handleTruncate)
	s.handle("/admin/tenants", "", s.handleTenants)
	return s, nil
}

// handle registers h at path. The wrapper owns what every handler starts
// with: the pooled buffer the reply (and /query's request body) is staged
// in, the 405 for any method but the route's one ("" = the handler accepts
// several and checks itself), and panic recovery — a panic anywhere in a
// handler becomes a 500 and a counter increment instead of a dead daemon.
// The engine-ownership semaphore and in-flight counters release on the way
// up (doCtx and withAllShards defer), so a recovered shard keeps serving.
func (s *Server) handle(path, method string, h func(*ioBuf, http.ResponseWriter, *http.Request)) {
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		b := getIOBuf()
		defer putIOBuf(b)
		defer func() {
			if rec := recover(); rec != nil {
				s.res.panics.Add(1)
				s.writeErr(b, w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", rec))
			}
		}()
		if s.panicHook != nil {
			s.panicHook(r)
		}
		if method != "" && r.Method != method {
			s.writeErr(b, w, http.StatusMethodNotAllowed, errors.New(method+" only"))
			return
		}
		h(b, w, r)
	})
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

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

// writeErr counts the failure and replies with it through the handler's
// pooled buffer.
func (s *Server) writeErr(b *ioBuf, w http.ResponseWriter, code int, err error) {
	s.errCount.Add(1)
	b.reply(w, code, errorResponse{Error: err.Error()})
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
