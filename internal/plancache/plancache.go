// Package plancache keeps live adaptive-parallelization sessions alive
// between query invocations. It is the serving-layer descendant of the
// paper's plan-administration component (§2, Figure 2): adaptive
// parallelization only pays off because plans are cached and re-invoked —
// every execution profiles the plan and morphs its most expensive operator,
// so the speedup is amortized across repeated submissions. The cache maps a
// query fingerprint (query identity + database identity) to its live
// adaptive session, so repeated submissions of the same query keep stepping
// the convergence algorithm and later callers get the current best plan.
//
// The cache is *adaptive* in a second sense: it is capacity-bounded and
// evicts least-recently-used entries, preferring converged sessions (whose
// learned plan is cheap to re-derive) over still-adapting ones (whose
// accumulated convergence state is expensive to lose).
//
// Concurrency: the cache's maps and per-entry bookkeeping are guarded by a
// mutex, but *stepping a session executes on the discrete-event machine*,
// which is single-threaded. Callers must serialize invocations (the
// internal/server shard owns one cache and serializes through its
// engine-ownership lock); the cache documents rather than hides this
// constraint so the engine-ownership boundary stays visible.
//
// Tenancy: one cache holds sessions from many tenants without collision —
// fingerprints incorporate each tenant's dataset identity — so entries
// carry a tenant tag purely for accounting: per-tenant quotas
// (SetTenantQuota) scope an over-quota tenant's eviction to its own
// sessions, and TenantStats breaks the counters down for /stats. Evicted
// sessions always Release their plan compilations back to the engine's
// buffer pool regardless of tenant.
package plancache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
)

// Fingerprint derives the cache key for a query against a database. db
// identifies the dataset (e.g. "tpch:sf=1:seed=42"); query identifies the
// template (e.g. "tpch:q6", or a hash of a builder-spec plan's text). The
// same query against a different database must adapt separately — learned
// range partitions depend on the data volume.
func Fingerprint(db, query string) string {
	h := sha256.Sum256([]byte(db + "\x00" + query))
	return hex.EncodeToString(h[:16])
}

// Config tunes the cache.
type Config struct {
	// MaxEntries bounds the number of live sessions (0 = unlimited). When
	// full, the least-recently-used converged entry is evicted; if every
	// entry is still adapting, the least-recently-used overall goes.
	MaxEntries int
	// IDPrefix namespaces session ids: prefix "s" yields s1, s2, ...
	// (the default); the engine shard pool gives each shard its own prefix
	// (e.g. "s2.") so ids stay unique across shards.
	IDPrefix string
	// Staleness arms post-convergence staleness detection (readapt.go) on
	// every session the cache serves, whether it created, restored or
	// warm-seeded it: converged sessions whose serving runs fall out of a
	// ±35 % band for 3 consecutive runs reopen convergence instead of
	// pinning a stale plan. Throttled and frozen invocations never feed the
	// detector — their latencies reflect the core budget or the breaker, not
	// the plan.
	Staleness bool
	// Persist, when set, is the write-behind persistence hook: it fires
	// once when a session converges (from the invocation that observed the
	// done transition) and again when a converged entry is evicted, so the
	// persistent convergence store always holds the session's final state.
	// It never fires on the converged serving path — persistence costs
	// nothing on hot requests — and never for unconverged or failed
	// sessions. The hook may be called with the cache's internal lock held:
	// it must not call back into the cache, and should only hand the entry
	// off (e.g. enqueue on a store.Synchronizer).
	Persist func(*Entry)
	// Drift arms per-tenant workload-drift detection (readapt.go): converged
	// sessions whose serving latency no longer matches the query mix they
	// converged under reopen sized to their observed core budget.
	Drift bool
}

// maxTraceInvocations bounds the per-entry invocation log: a long-lived
// daemon serving one hot query forever must not grow memory per request.
// The cap comfortably covers a full convergence (upper bound ~cores×8 runs
// on the largest built-in machine) plus a window of converged serving.
// When full, the oldest quarter is dropped in one copy so the steady-state
// trim cost is amortized O(1) per invocation.
const maxTraceInvocations = 1024

// Invocation records one served request against an entry — the convergence
// trace the server exposes at /sessions/{id}/trace. Only the most recent
// maxTraceInvocations records are retained.
type Invocation struct {
	// Run is the index of the most recent adaptive run at serve time (the
	// serial run is 0; -1 when throttled before any run). Invocations
	// served after convergence repeat the final run index.
	Run int `json:"run"`
	// LatencyNs is the virtual execution time of this invocation.
	LatencyNs float64 `json:"latency_ns"`
	// Converged reports whether the session had converged when served.
	Converged bool `json:"converged"`
	// MaxCores is the admission-control core budget applied (0 = unlimited).
	MaxCores int `json:"max_cores"`
	// DOP is the executed plan's degree of parallelism.
	DOP int `json:"dop"`
	// Throttled marks an invocation served under a reduced core budget
	// while the session was still adapting: it executed the current plan
	// but did NOT count as an adaptive run — a throttled latency reflects
	// the budget, not the plan, and would poison the convergence algorithm.
	Throttled bool `json:"throttled,omitempty"`
	// Frozen marks an invocation served in degraded (breaker-open) mode:
	// the session was neither stepped nor fed to a re-adaptation detector.
	Frozen bool `json:"frozen,omitempty"`
	// Reopened marks the invocation whose serving observation tripped
	// staleness detection and reopened the session's convergence.
	Reopened bool `json:"reopened,omitempty"`
	// DriftReopened marks the invocation whose serving observation tripped
	// the workload-drift detector and reopened the session's convergence
	// sized to its observed core budget.
	DriftReopened bool `json:"drift_reopened,omitempty"`
}

// Entry is one live adaptive session keyed by fingerprint.
type Entry struct {
	// ID is the server-visible session id ("s1", "s2", ...).
	ID string
	// Fingerprint is the cache key.
	Fingerprint string
	// Query is the human-readable query identity used at creation.
	Query string
	// Tenant tags the entry with the tenant that created it ("" = the
	// server's default dataset). Tenants never collide on fingerprints —
	// the fingerprint incorporates the dataset identity — so the tag exists
	// for quota accounting and tenant-scoped eviction, not correctness.
	Tenant string
	// Session is the live adaptation. Step it only via Cache.InvokeTenant.
	Session *core.Session

	cache       *Cache // guards the fields below via cache.mu
	seq         int    // creation order, for stable listings
	hits        int64
	lastUsed    int64 // logical clock ticks from the cache
	invocations []Invocation

	// inflight marks an invocation executing this entry's session outside
	// the cache lock. An eviction that lands mid-flight unlinks the entry
	// immediately but defers persistence and plan release to the
	// invocation's completion (evictPending/persistPending) — releasing a
	// session whose plans are mid-execution would race with the engine.
	inflight       bool
	evictPending   bool
	persistPending bool

	// Re-adaptation state (readapt.go). Touched only by the caller-serialized
	// invocation stream (and lifecycle operations holding the same shard
	// lock), like the session itself — not guarded by cache.mu.
	stale       bandWindow // staleWindow consecutive out-of-band full-budget servings
	drift       bandWindow // driftTrip-of-driftWindow out-of-band converged servings
	driftBudget int        // core budget of the most recent out-of-band serving
	convShare   float64    // entry's mix share at convergence (-1 = unrecorded)
}

// Hits returns how many invocations the entry has served.
func (e *Entry) Hits() int64 {
	e.cache.mu.Lock()
	defer e.cache.mu.Unlock()
	return e.hits
}

// Trace returns a copy of the per-invocation records.
func (e *Entry) Trace() []Invocation {
	e.cache.mu.Lock()
	defer e.cache.mu.Unlock()
	return append([]Invocation(nil), e.invocations...)
}

// Stats aggregates cache behavior for the /stats endpoint.
type Stats struct {
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Converged int   `json:"converged"`
	// Rehydrated counts sessions restored from the persistent convergence
	// store at startup (lifetime count; restored entries can still be
	// evicted later).
	Rehydrated int64 `json:"rehydrated,omitempty"`
	// Reconvergences counts staleness-triggered convergence reopens across
	// the cache's lifetime (including sessions since evicted).
	Reconvergences int64 `json:"reconvergences,omitempty"`
	// DataReopens counts sessions reopened warm by dataset epoch bumps
	// (lifecycle.go).
	DataReopens int64 `json:"data_reopens,omitempty"`
	// DriftReopens counts workload-drift-triggered convergence reopens
	// (readapt.go).
	DriftReopens int64 `json:"drift_reopens,omitempty"`
	// WarmSeeds counts sessions restored still adapting: warm seeds from
	// store records whose dataset epoch no longer matched the live dataset.
	WarmSeeds int64 `json:"warm_seeds,omitempty"`
}

// Add accumulates o into s — how Stats sums a cache's tenants and /stats
// sums shard caches into the pool view and a tenant's slices across shards. Every field participates
// (TestStatsAddCoversEveryField).
func (s *Stats) Add(o Stats) {
	s.Entries += o.Entries
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Converged += o.Converged
	s.Rehydrated += o.Rehydrated
	s.Reconvergences += o.Reconvergences
	s.DataReopens += o.DataReopens
	s.DriftReopens += o.DriftReopens
	s.WarmSeeds += o.WarmSeeds
}

// Cache maps query fingerprints to live adaptive sessions.
type Cache struct {
	mu   sync.Mutex
	eng  *exec.Engine
	cfg  Config
	byFP map[string]*Entry
	byID map[string]*Entry
	seq  int
	tick int64

	// search sums the mutation searches of every session this cache has
	// stepped, evicted ones included.
	search core.SearchStats

	// mixes holds each tenant's sliding query-mix signature (readapt.go),
	// guarded by mu like the other maps.
	mixes map[string]*mixWindow

	// quotas bounds live sessions per tenant tag (missing or 0 = unlimited);
	// tenantEntries tracks each tag's live session count (kept in step with
	// byFP so quota checks are O(1), not map scans); tenantStats holds each
	// tenant's lifetime counters, their only copy: Stats sums them.
	quotas        map[string]int
	tenantEntries map[string]int
	tenantStats   map[string]*Stats
}

// New creates a cache over eng. Its sessions adapt with the default
// mutation configuration and a convergence sized to the engine machine's
// logical core count.
func New(eng *exec.Engine, cfg Config) *Cache {
	if cfg.IDPrefix == "" {
		cfg.IDPrefix = "s"
	}
	return &Cache{eng: eng, cfg: cfg, byFP: map[string]*Entry{}, byID: map[string]*Entry{}}
}

// Result is one served invocation's outcome.
type Result struct {
	Entry      *Entry
	Values     []exec.Value
	Profile    *exec.Profile
	Invocation Invocation
	// Created reports whether this invocation instantiated the session.
	Created bool
}

// SetTenantQuota bounds the number of live sessions the given tenant tag may
// hold in this cache (0 removes the bound). When a tenant exceeds its quota,
// the overflow evicts that tenant's own least-recently-used session
// (converged first) — never another tenant's.
func (c *Cache) SetTenantQuota(tenant string, maxSessions int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.quotas == nil {
		c.quotas = map[string]int{}
	}
	c.quotas[tenant] = maxSessions
}

// InvokeTenant serves one invocation of the query identified by fp. The
// builder is called only when the fingerprint is new. While the session is
// adapting, the invocation IS an adaptive run (executed under opts' core
// budget); once converged, the global-minimum plan is executed directly.
//
// The session created on a miss is tagged with tenant ("" = the default
// tenant) for quota enforcement and the per-tenant stats breakdown. opts
// carries the tenant's catalog when the engine's own dataset is not the one
// being queried.
//
// InvokeTenant executes on the single-threaded virtual-time machine —
// callers must serialize it (see the package comment).
func (c *Cache) InvokeTenant(tenant, fp, query string, build func() (*plan.Plan, error), opts exec.JobOptions) (*Result, error) {
	return c.invoke(tenant, fp, query, build, opts, false)
}

// InvokeTenantFrozen serves one invocation in degraded mode: a converged
// session executes its best plan but its latency feeds neither re-adaptation
// detector, and a still-adapting session executes its current plan without
// stepping the adaptation. The per-shard health breaker uses this while
// open — a degraded shard keeps answering queries from learned state but
// stops all exploration and reopening until the breaker half-opens.
func (c *Cache) InvokeTenantFrozen(tenant, fp, query string, build func() (*plan.Plan, error), opts exec.JobOptions) (*Result, error) {
	return c.invoke(tenant, fp, query, build, opts, true)
}

func (c *Cache) invoke(tenant, fp, query string, build func() (*plan.Plan, error), opts exec.JobOptions, frozen bool) (*Result, error) {
	c.mu.Lock()
	e, ok := c.byFP[fp]
	if !ok {
		p, err := build()
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		e = c.insertLocked(tenant, fp, query, core.NewSession(c.eng, p, core.DefaultMutationConfig(), core.ConvergenceConfig{}))
		c.tenantCounterLocked(tenant).Misses++
	} else {
		c.tenantCounterLocked(e.Tenant).Hits++
	}
	c.tick++
	e.lastUsed = c.tick
	e.hits++
	e.inflight = true
	created := !ok
	share := -1.0
	if c.cfg.Drift {
		share = c.observeMixLocked(e.Tenant, fp)
	}
	c.mu.Unlock()

	// Engine execution happens outside the map lock so that Entry's
	// mutex-guarded accessors (Hits, Trace) and the cache's read methods
	// stay callable from other goroutines during a run. (Callers that
	// funnel every read through the same serializer as InvokeTenant — like
	// the apqd run-loop — still observe them blocked behind the execution.)
	var (
		values  []exec.Value
		profile *exec.Profile
		dop     int
		search  core.SearchStats // this invocation's share of the session's searches
	)
	cores := c.eng.Machine().Config().LogicalCores()
	// An invocation is throttled when its core budget is below what the
	// session's convergence instance is sized to — not below the whole
	// machine: a session reopened for drift (or on a shrunken machine) is
	// sized to the budget it actually serves under, and runs at that budget
	// are its full-fidelity reality, so they must step the adaptation and
	// feed staleness detection.
	target := cores
	if cc := e.Session.Convergence().Config().Cores; cc > 0 && cc < target {
		target = cc
	}
	throttled := opts.MaxCores > 0 && opts.MaxCores < target
	reopened := false
	drifted := false
	switch {
	case !e.Session.Done() && (throttled || frozen):
		// Admission throttled this invocation while the session is still
		// adapting — or the shard breaker froze adaptation: execute the
		// current plan but do not step the session. A throttled latency
		// reflects the core budget, not the plan's quality, and feeding
		// it to the convergence algorithm could converge the session
		// prematurely onto a suboptimal plan; a frozen invocation serves
		// from learned state while the shard recovers. Adaptation
		// advances on unthrottled, unfrozen invocations (under the
		// Vectorwise admission policy the first active client always has
		// the full machine).
		cur := e.Session.Current()
		var err error
		values, profile, err = c.eng.ExecuteOpts(cur, opts)
		if err != nil {
			c.dropEntry(e)
			return nil, err
		}
		dop = cur.MaxDOP()
	case !e.Session.Done():
		before := e.Session.SearchStats()
		_, err := e.Session.StepWith(opts)
		search = e.Session.SearchStats().Since(before)
		if err != nil {
			// A failing session would error on every future invocation;
			// evict it so the next request starts clean from the serial
			// plan instead of replaying the broken state forever.
			c.dropEntry(e)
			return nil, err
		}
		if e.Session.Done() {
			// This invocation observed the done transition: snapshot the
			// entry's mix share so drift detection can later compare the
			// serving mix against the one it converged under.
			e.convShare = share
			if c.cfg.Persist != nil {
				// The session's state is final from here on, so persist it
				// now. Still on the cold path — converged serving below
				// never reaches this.
				c.cfg.Persist(e)
			}
		}
		att := e.Session.Attempts()
		last := att[len(att)-1]
		values, profile = last.Results, last.Profile
		// Report the plan this invocation actually executed — on the run
		// that triggers convergence that is the final adaptive plan, not
		// necessarily the global-minimum plan served from here on.
		dop = last.Plan.MaxDOP()
	default:
		best := e.Session.Best()
		var err error
		values, profile, err = c.eng.ExecuteOpts(best, opts)
		if err != nil {
			c.dropEntry(e)
			return nil, err
		}
		dop = best.MaxDOP()
		if !frozen {
			reopened, drifted = c.observeServed(e, profile.Makespan(), opts.MaxCores, throttled, cores, share)
		}
	}

	inv := Invocation{
		Run:           len(e.Session.Attempts()) - 1, // -1: throttled before the first adaptive run
		LatencyNs:     profile.Makespan(),
		Converged:     e.Session.Done() || reopened || drifted, // converged at serve time
		MaxCores:      opts.MaxCores,
		DOP:           dop,
		Throttled:     throttled && !e.Session.Done() && !reopened && !drifted,
		Frozen:        frozen,
		Reopened:      reopened,
		DriftReopened: drifted,
	}
	c.mu.Lock()
	e.inflight = false
	c.search.Add(search)
	if reopened {
		c.tenantCounterLocked(e.Tenant).Reconvergences++
	}
	if drifted {
		c.tenantCounterLocked(e.Tenant).DriftReopens++
	}
	if len(e.invocations) >= maxTraceInvocations {
		keep := maxTraceInvocations * 3 / 4
		e.invocations = append(e.invocations[:0], e.invocations[len(e.invocations)-keep:]...)
	}
	e.invocations = append(e.invocations, inv)
	if e.evictPending {
		// An eviction unlinked the entry while this invocation was
		// executing; its deferred half runs now that the session is idle.
		e.evictPending = false
		if e.persistPending && c.cfg.Persist != nil && e.Session.Done() {
			c.cfg.Persist(e)
		}
		e.persistPending = false
		e.Session.Release()
	}
	c.mu.Unlock()
	return &Result{Entry: e, Values: values, Profile: profile, Invocation: inv, Created: created}, nil
}

// Restore inserts a session rehydrated from the persistent convergence
// store, so the first invocation of fp is a cache hit served from the learned
// plan instead of a cold re-adaptation. A converged session counts as
// rehydrated; one still adapting — a warm seed the caller reopened
// (core.Session.ReopenForData) because its record's dataset epoch no longer
// matches the live dataset — counts as a warm seed and re-converges on the
// request stream. The caller is responsible for identity checks (the session
// must have been built against this cache's engine dataset). A fingerprint
// already live in the cache wins over the store and Restore returns nil.
// Restored entries participate in eviction like any other entry, including
// tenant quotas.
func (c *Cache) Restore(tenant, fp, query string, sess *core.Session) *Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byFP[fp]; ok {
		return nil
	}
	e := c.insertLocked(tenant, fp, query, sess)
	c.tick++
	e.lastUsed = c.tick
	if st := c.tenantCounterLocked(tenant); sess.Done() {
		st.Rehydrated++
	} else {
		st.WarmSeeds++
	}
	return e
}

// insertLocked links a new entry for sess under fp and enforces the eviction
// policy around it. The caller has checked fp is not live and counts the
// insertion. Whether the entry's detectors are fed is invoke's decision,
// made on every serving from the cache's Staleness and Drift switches.
func (c *Cache) insertLocked(tenant, fp, query string, sess *core.Session) *Entry {
	c.seq++
	e := &Entry{
		ID:          fmt.Sprintf("%s%d", c.cfg.IDPrefix, c.seq),
		Fingerprint: fp,
		Query:       query,
		Tenant:      tenant,
		Session:     sess,
		cache:       c,
		seq:         c.seq,
		convShare:   -1,
		stale:       newBandWindow(servingBand, staleWindow, staleWindow),
		drift:       newBandWindow(servingBand, driftWindow, driftTrip),
	}
	c.byFP[fp] = e
	c.byID[e.ID] = e
	if c.tenantEntries == nil {
		c.tenantEntries = map[string]int{}
	}
	c.tenantEntries[tenant]++
	c.evictOverflowLocked(e)
	return e
}

// tenantCounterLocked returns (creating if needed) the counter record for a
// tenant tag. Entries and Converged are not kept here: they are computed on
// read.
func (c *Cache) tenantCounterLocked(tenant string) *Stats {
	if c.tenantStats == nil {
		c.tenantStats = map[string]*Stats{}
	}
	st, ok := c.tenantStats[tenant]
	if !ok {
		st = &Stats{}
		c.tenantStats[tenant] = st
	}
	return st
}

// dropEntry removes a failed entry (counted as an eviction). A failed
// entry's state is suspect, so it is never persisted on the way out — even
// when an eviction raced the failed run and left its persistence pending.
func (c *Cache) dropEntry(e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.inflight = false
	if e.evictPending {
		e.evictPending, e.persistPending = false, false
		e.Session.Release()
		return
	}
	if c.byFP[e.Fingerprint] == e {
		c.removeLocked(e, false)
	}
}

// removeLocked unlinks an entry, counts the eviction (globally and for the
// entry's tenant), and releases the session's compilations back to the
// engine's buffer pool. With persist set, a converged entry is handed to
// the persistence hook first (with c.mu held — see Config.Persist), so an
// evicted-then-reinvoked query rehydrates hot after the next restart.
func (c *Cache) removeLocked(e *Entry, persist bool) {
	delete(c.byFP, e.Fingerprint)
	delete(c.byID, e.ID)
	c.tenantCounterLocked(e.Tenant).Evictions++
	c.tenantEntries[e.Tenant]--
	if e.inflight {
		// The entry is mid-invocation on another goroutine: its session and
		// the plans it executes are live. Unlink now, but leave persistence
		// and plan release to the invocation's completion.
		e.evictPending = true
		e.persistPending = persist
		return
	}
	if persist && c.cfg.Persist != nil && e.Session.Done() {
		c.cfg.Persist(e)
	}
	e.Session.Release()
}

// evictOverflowLocked enforces the eviction policy after inserting keep,
// which is never evicted. Two bounds apply, in order:
//
//  1. The inserting tenant's quota: while keep's tenant holds more sessions
//     than SetTenantQuota allows, that tenant's own LRU session goes
//     (converged first). Other tenants' sessions are untouchable here — an
//     over-quota tenant can only ever evict itself.
//  2. The global MaxEntries bound, preferring victims from tenants that are
//     over their own quota, then converged LRU entries, then LRU overall.
func (c *Cache) evictOverflowLocked(keep *Entry) {
	if q := c.quotas[keep.Tenant]; q > 0 {
		for c.tenantEntries[keep.Tenant] > q {
			victim := c.lruLocked(keep, true, func(e *Entry) bool { return e.Tenant == keep.Tenant })
			if victim == nil {
				victim = c.lruLocked(keep, false, func(e *Entry) bool { return e.Tenant == keep.Tenant })
			}
			if victim == nil {
				return
			}
			c.removeLocked(victim, true)
		}
	}
	if c.cfg.MaxEntries <= 0 {
		return
	}
	for len(c.byFP) > c.cfg.MaxEntries {
		victim := c.lruLocked(keep, false, c.overQuotaLocked)
		if victim == nil {
			victim = c.lruLocked(keep, true, nil)
		}
		if victim == nil {
			victim = c.lruLocked(keep, false, nil)
		}
		if victim == nil {
			return
		}
		// The evicted session's plan compilations (and their arena buffers)
		// go back to the engine pool instead of lingering until the
		// engine's schedule-cache overflow.
		c.removeLocked(victim, true)
	}
}

// overQuotaLocked reports whether e's tenant currently exceeds its quota.
func (c *Cache) overQuotaLocked(e *Entry) bool {
	q := c.quotas[e.Tenant]
	return q > 0 && c.tenantEntries[e.Tenant] > q
}

func (c *Cache) lruLocked(keep *Entry, convergedOnly bool, eligible func(*Entry) bool) *Entry {
	var victim *Entry
	for _, e := range c.byFP {
		if e == keep || (convergedOnly && !e.Session.Done()) {
			continue
		}
		if eligible != nil && !eligible(e) {
			continue
		}
		if victim == nil || e.lastUsed < victim.lastUsed {
			victim = e
		}
	}
	return victim
}

// Get returns the entry with the given session id, or nil.
func (c *Cache) Get(id string) *Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byID[id]
}

// GetFingerprint returns the entry with the given fingerprint, or nil.
func (c *Cache) GetFingerprint(fp string) *Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byFP[fp]
}

// List returns the entries ordered by session id creation order.
func (c *Cache) List() []*Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Entry, 0, len(c.byID))
	for _, e := range c.byID {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Evict removes the entry with the given fingerprint.
func (c *Cache) Evict(fp string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byFP[fp]; ok {
		c.removeLocked(e, true)
	}
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{Entries: len(c.byFP)}
	for _, ts := range c.tenantStats {
		st.Add(*ts)
	}
	for _, e := range c.byFP {
		if e.Session.Done() {
			st.Converged++
		}
	}
	return st
}

// SearchStats reports the mutation searches of every session the cache has
// stepped: searches run, steps that reused the previous unchanged search, and
// the time spent searching.
func (c *Cache) SearchStats() core.SearchStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.search
}

// TenantStats snapshots the per-tenant slice of the cache counters, keyed by
// tenant tag. Every tenant that ever touched the cache appears, even with
// zero live entries (its hit/miss/eviction history remains meaningful).
func (c *Cache) TenantStats() map[string]Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]Stats, len(c.tenantStats))
	for t, st := range c.tenantStats {
		out[t] = *st
	}
	for _, e := range c.byFP {
		st := out[e.Tenant]
		st.Entries++
		if e.Session.Done() {
			st.Converged++
		}
		out[e.Tenant] = st
	}
	return out
}
