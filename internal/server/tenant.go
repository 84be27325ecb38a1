package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/plancache"
	"repro/internal/storage"
)

// errTenantDraining reports a request routed to a tenant mid-removal. The
// HTTP layer maps it to 404 — from the client's view a draining tenant has
// already ceased to exist; only requests admitted before the drain started
// still complete. errUnknownTenant is the routing miss (an unlinked or
// draining name): 404 on /query and on the admin surface alike.
var (
	errTenantDraining = errors.New("tenant draining")
	errUnknownTenant  = errors.New("unknown tenant")
)

// Tenant configures one named dataset served by the daemon alongside its
// default database. Tenants multiplex over the same engine shard pool: the
// same simulated machines, engine buffer recyclers, schedule caches and
// per-shard admission control serve every tenant, and only bind resolution
// (exec.JobOptions.Catalog) differs per request. Isolation comes from the
// fingerprint: every cache key incorporates the tenant's DBIdentity, so one
// plan-session cache per shard safely holds sessions from many tenants.
type Tenant struct {
	// Name routes requests ("tenant" field or X-APQ-Tenant header). It must
	// be unique, non-empty, and not "default" (which names the server's
	// primary database).
	Name string
	// Catalog is the tenant's loaded dataset.
	Catalog *storage.Catalog
	// DBIdentity names the dataset for fingerprinting (empty = Name). It
	// must change when the tenant's data does.
	DBIdentity string
	// Benchmark is the tenant's named-query set ("tpch" or "tpcds"; empty =
	// tpch). Requests for the other benchmark are rejected per tenant.
	Benchmark string
	// MaxSessions bounds the tenant's live cached sessions on each shard
	// (0 = unlimited). The fingerprint hash spreads a tenant's queries
	// across shards, so the pool-wide bound is MaxSessions × shards. An
	// over-quota tenant evicts its own least-recently-used session
	// (converged first) — never another tenant's.
	MaxSessions int
	// MaxInFlight bounds the tenant's concurrently executing requests
	// across the whole pool (0 = unlimited); excess requests fail fast
	// with 429 instead of queueing on shard locks.
	MaxInFlight int
}

// tenantState is one tenant's runtime: its immutable config plus the
// in-flight gate and request counters. def marks the server's primary
// database (tag "", display name "default"). Counters are atomics, not a
// mutex: every request of every shard touches its tenant's state, and a lock
// here would be a pool-wide serialization point on exactly the path the
// shard pool exists to spread.
type tenantState struct {
	Tenant
	def bool

	// epoch is the dataset's live mutation epoch: 0 when the tenant is
	// linked (its dataset as given), bumped by every admin mutation.
	// Persisted records carry the epoch they converged at, and rehydration
	// compares the two. catalog is the live catalog pointer (mutations swap
	// in a new catalog under the all-shard barrier, so a pointer loaded
	// inside a shard stays valid and immutable for the run that loaded it).
	// draining marks a tenant mid-removal: new requests 404, in-flight ones
	// finish. mutMu serializes data mutations per tenant.
	epoch    atomic.Int64
	catalog  atomic.Pointer[storage.Catalog]
	draining atomic.Bool
	mutMu    sync.Mutex

	inFlight     atomic.Int64
	peakInFlight atomic.Int64
	requests     atomic.Int64
	errors       atomic.Int64
	rejected     atomic.Int64
}

// newTenantState wires a tenant config into its runtime state. The live
// catalog starts detached from whatever lineage the configured one belongs
// to: every heap this tenant's mutations reclaim was born in them, never
// shared with the embedding program or with another tenant.
func newTenantState(t Tenant, def bool) *tenantState {
	tn := &tenantState{Tenant: t, def: def}
	tn.catalog.Store(t.Catalog.Detached())
	return tn
}

// acquire takes one in-flight slot, or reports the over-quota rejection.
// The draining check sits AFTER the in-flight increment: the remover sets
// draining and then waits for inFlight to reach zero, so a request that
// slipped past tenantByName either bounces here or is visible to that wait —
// never silently executing against a tenant being torn down.
func (tn *tenantState) acquire() error {
	tn.requests.Add(1)
	n := tn.inFlight.Add(1)
	if tn.draining.Load() {
		tn.inFlight.Add(-1)
		return fmt.Errorf("tenant %q: %w", tn.displayName(), errTenantDraining)
	}
	if tn.MaxInFlight > 0 && n > int64(tn.MaxInFlight) {
		tn.inFlight.Add(-1)
		tn.rejected.Add(1)
		return fmt.Errorf("tenant %q over in-flight quota (%d)", tn.displayName(), tn.MaxInFlight)
	}
	for {
		peak := tn.peakInFlight.Load()
		if n <= peak || tn.peakInFlight.CompareAndSwap(peak, n) {
			return nil
		}
	}
}

func (tn *tenantState) release() { tn.inFlight.Add(-1) }

func (tn *tenantState) noteErr() { tn.errors.Add(1) }

// tag is the plancache tenant tag: "" for the default tenant (so existing
// single-tenant cache behavior and stats are unchanged), the name otherwise.
func (tn *tenantState) tag() string {
	if tn.def {
		return ""
	}
	return tn.Name
}

// displayName is the external name: the default tenant reads "default".
func (tn *tenantState) displayName() string {
	if tn.def {
		return "default"
	}
	return tn.Name
}

// curCatalog is the tenant's live catalog (post-mutation copies included) —
// what every request's binds resolve against (exec.JobOptions.Catalog).
func (tn *tenantState) curCatalog() *storage.Catalog {
	return tn.catalog.Load()
}

// linkTenant validates a named tenant and links it into routing — the one
// path for startup configuration and runtime addition alike.
func (s *Server) linkTenant(t Tenant) (*tenantState, error) {
	switch {
	case t.Name == "" || t.Name == "default":
		return nil, fmt.Errorf("server: tenant name %q reserved (the primary database is tenant \"default\")", t.Name)
	case t.Catalog == nil:
		return nil, fmt.Errorf("server: tenant %q has no catalog", t.Name)
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
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if _, dup := s.tenants[t.Name]; dup {
		return nil, fmt.Errorf("server: duplicate tenant %q", t.Name)
	}
	// Identity uniqueness is load-bearing, not cosmetic: fingerprints
	// incorporate DBIdentity, so two tenants sharing one identity would
	// silently share cache sessions — merging their quotas, stats, and
	// (with different catalogs) their adaptive state. The scan includes the
	// default tenant (tenantList[0]).
	for _, other := range s.tenantList {
		if other.DBIdentity == t.DBIdentity {
			return nil, fmt.Errorf("server: tenant %q shares DBIdentity %q with tenant %q — identities must be unique or fingerprints collide across tenants", t.Name, t.DBIdentity, other.displayName())
		}
	}
	tn := newTenantState(t, false)
	s.tenants[t.Name] = tn
	s.tenantList = append(s.tenantList, tn)
	return tn, nil
}

// tenantByName routes a display name (request body field, X-APQ-Tenant
// header, admin request) to its tenant. Empty and "default" name the server's
// primary database. A draining tenant is already gone from the client's
// perspective — same "unknown tenant" reply removal leaves behind.
func (s *Server) tenantByName(name string) (*tenantState, error) {
	if name == "" || name == "default" {
		return s.defTenant, nil
	}
	s.tenantMu.RLock()
	tn, ok := s.tenants[name]
	s.tenantMu.RUnlock()
	if !ok || tn.draining.Load() {
		return nil, fmt.Errorf("%w %q", errUnknownTenant, name)
	}
	return tn, nil
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

// TenantStatsInfo is one tenant's slice of the GET /stats reply. Cache
// counters aggregate the tenant's sessions across every shard.
type TenantStatsInfo struct {
	Tenant     string `json:"tenant"`
	Benchmark  string `json:"benchmark"`
	DBIdentity string `json:"db_identity"`
	// Requests counts every routed request (including rejected ones);
	// Rejected counts 429s from the in-flight quota.
	Requests     int64 `json:"requests"`
	Errors       int64 `json:"errors"`
	Rejected     int64 `json:"rejected_over_quota"`
	PeakInFlight int   `json:"peak_in_flight"`
	MaxInFlight  int   `json:"max_in_flight,omitempty"`
	// MaxSessions echoes the per-shard session quota (0 = unlimited).
	MaxSessions int `json:"max_sessions_per_shard,omitempty"`
	// Epoch is the dataset's live mutation epoch (0 = as generated);
	// Draining marks a tenant mid-removal (visible only in the narrow
	// window between the drain starting and the tenant unlinking).
	Epoch    int64 `json:"epoch"`
	Draining bool  `json:"draining,omitempty"`
	// Cache aggregates the tenant's plan-session cache counters across
	// shards.
	Cache plancache.Stats `json:"cache"`
}

// statsInfo snapshots the tenant's request counters (cache counters are
// merged in by handleStats, which holds the shard locks).
func (tn *tenantState) statsInfo() TenantStatsInfo {
	return TenantStatsInfo{
		Tenant:       tn.displayName(),
		Benchmark:    tn.Benchmark,
		DBIdentity:   tn.DBIdentity,
		Requests:     tn.requests.Load(),
		Errors:       tn.errors.Load(),
		Rejected:     tn.rejected.Load(),
		PeakInFlight: int(tn.peakInFlight.Load()),
		MaxInFlight:  tn.MaxInFlight,
		MaxSessions:  tn.MaxSessions,
		Epoch:        tn.epoch.Load(),
		Draining:     tn.draining.Load(),
	}
}
