// Dataset mutation and zero-downtime tenant lifecycle — the /admin surface.
//
// Mutation model: catalogs are immutable. An append or tail-delete builds a
// new catalog (storage.Catalog.AppendRows / DeleteTail: the rows land behind
// every reader's length, or in a copy), then the swap happens under EVERY
// shard's engine-ownership semaphore at once (withAllShards): the tenant's
// live catalog pointer and epoch advance together, the mutated table's tail
// is reclaimed (storage.Catalog.ReclaimTail — no request is running, and
// every later one loads its catalog inside its shard), and each shard cache
// reopens the tenant's sessions warm (plancache.ReopenTenantForData) — seeded
// from their learned plans, so re-convergence costs a bounded handful of runs
// instead of a cold restart.
//
// Lifecycle model: tenants come and go without a restart. Addition builds
// the dataset outside every lock (Config.TenantFactory), links the tenant,
// and — when a persistent store is configured — rehydrates its surviving
// records (epoch-checked: stale epochs come back as warm seeds). Removal is
// a drain: mark draining (new traffic 404s at routing and at admission),
// wait for in-flight requests to finish, flush the tenant's converged
// sessions through the persistence hook under each shard's lock, make them
// durable, then unlink. In-flight requests always complete; nothing 500s.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// TenantSpec is the POST /admin/tenants body: what to call the tenant and
// how to build its dataset. The server hands it to Config.TenantFactory.
type TenantSpec struct {
	// Name routes requests to the tenant. Required, unique, and not
	// "default" (the primary database's reserved name).
	Name string `json:"name"`
	// Benchmark is the tenant's dataset generator and named-query set:
	// "tpch" (default) or "tpcds".
	Benchmark string `json:"benchmark,omitempty"`
	// SF is the generator scale factor (0 = 1).
	SF float64 `json:"sf,omitempty"`
	// Seed is the generator seed, part of the tenant's dataset identity.
	Seed int64 `json:"seed,omitempty"`
	// MaxSessions bounds the tenant's live cached plan-sessions on each
	// shard (0 = unlimited). Over-quota tenants evict only their own
	// least-recently-used sessions, converged first.
	MaxSessions int `json:"max_sessions,omitempty"`
	// MaxInFlight bounds the tenant's concurrently executing requests
	// (0 = unlimited); excess requests fail fast with HTTP 429.
	MaxInFlight int `json:"max_in_flight,omitempty"`
}

// appendRequest is the POST /admin/append body, read by decodeAppend; each
// column carries exactly one of "ints" or "strs", matching the column's type.
type appendRequest struct {
	Tenant  string                          `json:"tenant,omitempty"`
	Table   string                          `json:"table"`
	Columns map[string]storage.ColumnAppend `json:"columns"`
}

// truncateRequest is the POST /admin/truncate body: delete the last Rows
// rows of Table.
type truncateRequest struct {
	Tenant string `json:"tenant,omitempty"`
	Table  string `json:"table"`
	Rows   int    `json:"rows"`
}

// MutationResponse reports one admin data mutation: the tenant's new epoch
// and how many sessions the epoch bump reopened warm.
type MutationResponse struct {
	Tenant string `json:"tenant"`
	Table  string `json:"table"`
	Epoch  int64  `json:"epoch"`
	Rows   int64  `json:"rows"`
	// SessionsReopened counts cached sessions re-seeded warm across shards.
	SessionsReopened int `json:"sessions_reopened"`
}

// TenantLifecycleResponse reports one tenant addition or removal.
type TenantLifecycleResponse struct {
	Tenant string `json:"tenant"`
	// Epoch is the tenant's dataset epoch (additions only).
	Epoch int64 `json:"epoch"`
	// SessionsFlushed counts converged sessions persisted during removal;
	// SessionsRehydrated / SessionsWarmSeeded count store records restored
	// during addition.
	SessionsFlushed    int   `json:"sessions_flushed,omitempty"`
	SessionsRehydrated int64 `json:"sessions_rehydrated,omitempty"`
	SessionsWarmSeeded int64 `json:"sessions_warm_seeded,omitempty"`
}

// errNoFactory reports a tenant addition without a configured factory.
var errNoFactory = errors.New("server: no tenant factory configured")

// beginAdmin registers an admin operation with the server's in-flight
// tracking, so Close drains a mutation mid-flight before flushing the
// write-behind store — a shutdown can never lose a mutation's session
// flushes or tear down engines under a catalog swap. The returned func ends
// the operation.
func (s *Server) beginAdmin() (func(), error) {
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return nil, ErrClosed
	}
	s.inflight.Add(1)
	s.closeMu.RUnlock()
	return s.inflight.Done, nil
}

// mutateTenant runs one data mutation end to end: build the new catalog
// with op, then — holding every shard's engine-ownership
// semaphore at once — swap the tenant's catalog, bump its epoch, and reopen
// its cached sessions warm. Mutations of one tenant serialize on its mutMu;
// op runs outside the engine locks so serving stalls only for the swap.
// counter is the lifecycle counter the mutation kind bumps on success.
func (s *Server) mutateTenant(tenant, table string, counter *atomic.Int64, op func(*storage.Catalog) (*storage.Catalog, error)) (MutationResponse, error) {
	done, err := s.beginAdmin()
	if err != nil {
		return MutationResponse{}, err
	}
	defer done()
	tn, err := s.tenantByName(tenant)
	if err != nil {
		return MutationResponse{}, err
	}
	tn.mutMu.Lock()
	defer tn.mutMu.Unlock()
	ncat, err := op(tn.curCatalog())
	if err != nil {
		return MutationResponse{}, err
	}
	resp := MutationResponse{Tenant: tn.displayName(), Table: table, Rows: int64(ncat.MustTable(table).Rows())}
	// The catalog pointer, the epoch, and the session reopens move as one
	// atomic step from serving's view.
	s.withAllShards(func() {
		tn.catalog.Store(ncat)
		// Every request that runs from here on loads ncat inside its shard
		// (query.go), none is mid-run, and nothing reads base storage outside
		// a run — so of this table's lineage only ncat's version is read.
		ncat.ReclaimTail(table)
		resp.Epoch = tn.epoch.Add(1)
		for _, sh := range s.shards {
			resp.SessionsReopened += sh.cache.ReopenTenantForData(tn.tag())
		}
	})
	counter.Add(1)
	return resp, nil
}

// AppendRows appends rows to one table of a tenant's dataset ("" or
// "default" = the primary database), bumping its epoch and reopening its
// cached sessions warm. cols must cover every column of the table with
// equal, positive lengths (storage.Catalog.AppendRows semantics).
func (s *Server) AppendRows(tenant, table string, cols map[string]storage.ColumnAppend) (MutationResponse, error) {
	return s.mutateTenant(tenant, table, &s.life.appends, func(cat *storage.Catalog) (*storage.Catalog, error) {
		return cat.AppendRows(table, cols)
	})
}

// DeleteTail deletes the last n rows of one table of a tenant's dataset,
// bumping its epoch and reopening its cached sessions warm.
func (s *Server) DeleteTail(tenant, table string, n int) (MutationResponse, error) {
	return s.mutateTenant(tenant, table, &s.life.deletes, func(cat *storage.Catalog) (*storage.Catalog, error) {
		return cat.DeleteTail(table, n)
	})
}

// AddTenant links a factory-built tenant into the live server. The dataset
// builds outside every lock; linking is one map insert. When a persistent
// store is configured, the new tenant's surviving records rehydrate
// (epoch-mismatched ones as warm seeds) so a re-added tenant comes back with
// its learned plans.
func (s *Server) AddTenant(spec TenantSpec) (TenantLifecycleResponse, error) {
	done, err := s.beginAdmin()
	if err != nil {
		return TenantLifecycleResponse{}, err
	}
	defer done()
	if s.cfg.TenantFactory == nil {
		return TenantLifecycleResponse{}, errNoFactory
	}
	// linkTenant checks the name again; checking it here first means a bad
	// name never pays dataset generation.
	if spec.Name == "" || spec.Name == "default" {
		return TenantLifecycleResponse{}, fmt.Errorf("server: tenant name %q reserved", spec.Name)
	}
	t, err := s.cfg.TenantFactory(spec)
	if err != nil {
		return TenantLifecycleResponse{}, err
	}
	if t.Name != spec.Name {
		return TenantLifecycleResponse{}, fmt.Errorf("server: tenant factory renamed %q to %q", spec.Name, t.Name)
	}
	tn, err := s.linkTenant(t)
	if err != nil {
		return TenantLifecycleResponse{}, err
	}
	if tn.MaxSessions > 0 {
		for _, sh := range s.shards {
			shard := sh
			s.do(shard, func() { shard.cache.SetTenantQuota(tn.tag(), tn.MaxSessions) })
		}
	}
	resp := TenantLifecycleResponse{Tenant: tn.Name, Epoch: tn.epoch.Load()}
	if s.cfg.Store != nil {
		resp.SessionsRehydrated, resp.SessionsWarmSeeded = s.rehydrate(s.cfg.Store, tn)
	}
	s.life.tenantsAdded.Add(1)
	return resp, nil
}

// RemoveTenant drains and unlinks a named tenant with zero downtime for
// everyone else: new traffic 404s immediately, in-flight requests complete,
// converged sessions flush to the persistent store, and only then do the
// tenant's cache entries, plans, quotas, and fingerprint-cache lines go
// away. The default tenant cannot be removed.
func (s *Server) RemoveTenant(name string) (TenantLifecycleResponse, error) {
	done, err := s.beginAdmin()
	if err != nil {
		return TenantLifecycleResponse{}, err
	}
	defer done()
	if name == "" || name == "default" {
		return TenantLifecycleResponse{}, errors.New("server: cannot remove the default tenant")
	}
	s.tenantMu.Lock()
	tn, ok := s.tenants[name]
	if !ok || tn.draining.Load() {
		s.tenantMu.Unlock()
		return TenantLifecycleResponse{}, fmt.Errorf("%w %q", errUnknownTenant, name)
	}
	// Draining flips under the write lock: every later tenantByName (which
	// reads under the same lock) sees it, so no new request is admitted
	// from here on. The state stays linked until the flush is done —
	// the persistence hook still needs to resolve the tenant's identity.
	tn.draining.Store(true)
	s.tenantMu.Unlock()

	// Quiesce: requests admitted before the drain flag still hold in-flight
	// slots; wait them out. acquire() increments before checking draining,
	// so a racer either bounces (and decrements) or is visible here.
	for tn.inFlight.Load() > 0 {
		time.Sleep(200 * time.Microsecond)
	}

	// Flush and release per shard, under each shard's engine-ownership
	// lock: converged sessions persist through the cache's hook, every
	// entry (and its plans, via the cache's eviction path) is released.
	flushed := 0
	for _, sh := range s.shards {
		shard := sh
		if err := s.do(shard, func() {
			flushed += shard.cache.EvictTenant(tn.tag(), s.sync != nil)
		}); err != nil {
			return TenantLifecycleResponse{}, err
		}
	}
	// Make the flushed records durable before the tenant disappears from
	// routing: after this, a re-add can rehydrate them.
	if s.sync != nil {
		s.sync.Flush()
	}

	s.tenantMu.Lock()
	delete(s.tenants, name)
	s.tenantList = slices.DeleteFunc(s.tenantList, func(e *tenantState) bool { return e == tn })
	s.tenantMu.Unlock()

	// Drop the tenant's fingerprint-cache lines (keys are prefixed
	// name + NUL by fpCacheKey).
	prefix := name + "\x00"
	s.fpMu.Lock()
	for k := range s.fpCache {
		if strings.HasPrefix(k, prefix) {
			delete(s.fpCache, k)
		}
	}
	s.fpMu.Unlock()
	s.life.tenantsRemoved.Add(1)
	return TenantLifecycleResponse{Tenant: name, SessionsFlushed: flushed}, nil
}

// adminReply writes one admin operation's outcome: the response, or the
// error under its status (anything the request itself got wrong is a 400).
func (s *Server) adminReply(b *ioBuf, w http.ResponseWriter, resp any, err error) {
	switch {
	case err == nil:
		b.reply(w, http.StatusOK, resp)
	case errors.Is(err, ErrClosed), errors.Is(err, errNoFactory):
		s.writeErr(b, w, http.StatusServiceUnavailable, err)
	case errors.Is(err, errUnknownTenant):
		s.writeErr(b, w, http.StatusNotFound, err)
	default:
		s.writeErr(b, w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleAppend(b *ioBuf, w http.ResponseWriter, r *http.Request) {
	var req appendRequest
	if !s.readBody(b, w, r, maxRequestBody, func(data []byte) error { return decodeAppend(data, &req) }) {
		return
	}
	resp, err := s.AppendRows(req.Tenant, req.Table, req.Columns)
	s.adminReply(b, w, resp, err)
}

func (s *Server) handleTruncate(b *ioBuf, w http.ResponseWriter, r *http.Request) {
	var req truncateRequest
	if !s.readBody(b, w, r, maxRequestBody, func(data []byte) error { return json.Unmarshal(data, &req) }) {
		return
	}
	resp, err := s.DeleteTail(req.Tenant, req.Table, req.Rows)
	s.adminReply(b, w, resp, err)
}

func (s *Server) handleTenants(b *ioBuf, w http.ResponseWriter, r *http.Request) {
	var (
		resp TenantLifecycleResponse
		err  error
	)
	switch r.Method {
	case http.MethodPost:
		var spec TenantSpec
		if !s.readBody(b, w, r, maxRequestBody, func(data []byte) error { return json.Unmarshal(data, &spec) }) {
			return
		}
		resp, err = s.AddTenant(spec)
	case http.MethodDelete:
		if name := r.URL.Query().Get("name"); name == "" {
			err = errors.New("missing ?name=")
		} else {
			resp, err = s.RemoveTenant(name)
		}
	default:
		s.writeErr(b, w, http.StatusMethodNotAllowed, errors.New("POST or DELETE only"))
		return
	}
	s.adminReply(b, w, resp, err)
}
