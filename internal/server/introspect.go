// The read-only surface: GET /sessions, /sessions/{id}/trace, /stats and
// /healthz.
package server

import (
	"fmt"
	"net/http"
	"slices"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/plancache"
	"repro/internal/sim"
	"repro/internal/store"
)

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

func (s *Server) handleSessions(b *ioBuf, w http.ResponseWriter, r *http.Request) {
	// ?tenant= scopes the listing to one tenant's sessions ("default" = the
	// primary database; an empty value falls back to the X-APQ-Tenant
	// header). Absent means every tenant; an unknown name is the same 404
	// POST /query would give it.
	filter := ""
	filtered := false
	if v, ok := r.URL.Query()["tenant"]; ok {
		filtered = true
		name := v[0] // a key url.ParseQuery reports has at least one value
		if name == "" {
			name = r.Header.Get("X-APQ-Tenant")
		}
		tn, err := s.tenantByName(name)
		if err != nil {
			s.writeErr(b, w, http.StatusNotFound, err)
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
			s.writeErr(b, w, http.StatusServiceUnavailable, err)
			return
		}
	}
	b.reply(w, http.StatusOK, out)
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

func (s *Server) handleSessionTrace(b *ioBuf, w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/sessions/")
	id, tail, ok := strings.Cut(rest, "/")
	if !ok || tail != "trace" || id == "" {
		s.writeErr(b, w, http.StatusNotFound, fmt.Errorf("no route %q (want /sessions/{id}/trace)", r.URL.Path))
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
			s.writeErr(b, w, http.StatusServiceUnavailable, err)
			return
		}
		break
	}
	if !found {
		s.writeErr(b, w, http.StatusNotFound, fmt.Errorf("unknown session %q", id))
		return
	}
	b.reply(w, http.StatusOK, resp)
}

// ShardStats is one shard's slice of the GET /stats reply.
type ShardStats struct {
	Shard        int             `json:"shard"`
	VirtualNowNs float64         `json:"virtual_now_ns"`
	PeakClients  int             `json:"peak_concurrent_clients"`
	Cache        ShardCacheStats `json:"cache"`
	// Recycler reports the shard engine's size-classed buffer pool (hit and
	// miss counters per size class); Compile counts plan compilations that
	// started from the pool (full) vs from the parent plan's adopted arena
	// (derived); Runs counts plan runs whose virtual time the event core
	// simulated vs that repeated the plan's recorded timeline (replayed), and
	// those the evaluation helper shared (helped). All three are
	// atomic-counter snapshots.
	Recycler exec.RecyclerStats `json:"recycler"`
	Compile  exec.CompileStats  `json:"compile"`
	Runs     exec.RunStats      `json:"runs"`
	// Faults reports the shard machine's fault-injection counters.
	Faults sim.FaultStats `json:"faults"`
}

// ShardCacheStats is a shard's plan-cache block: the counters every view of
// the cache sums, plus the shard's mutation searches.
type ShardCacheStats struct {
	plancache.Stats
	Search SearchStatsInfo `json:"search"`
}

// SearchStatsInfo counts the mutation searches of the sessions a shard has
// stepped: searches run, steps that reused the previous search because the
// plan and its profile were unchanged (a draining session's re-runs), and
// the total time spent searching — the core layer's clock.
type SearchStatsInfo struct {
	Runs   int64 `json:"runs"`
	Reused int64 `json:"reused"`
	Us     int64 `json:"us"`
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
	// Helper is the process-wide evaluation helper every shard's runs share:
	// offers taken, offers declined for want of an idle helper or a free
	// core, and the summed offer-to-start time (StartUs / Joins is the mean
	// wake latency) — the kernel stage's first clock the daemon owns.
	Helper exec.HelperStats `json:"helper"`
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
	// Cluster is the federation's block (Config.Federation's ClusterStats;
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
	// (startup, runtime tenant additions and replicated records: the caches'
	// summed Rehydrated); WarmSeededSessions counts records whose dataset
	// epoch mismatched the live tenant's and came back as warm seeds instead
	// of served-converged (the summed WarmSeeds); SkippedRecords counts
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

func (s *Server) handleStats(b *ioBuf, w http.ResponseWriter, r *http.Request) {
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
		Helper:            exec.EvalHelperStats(),
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
			Runs:     sh.eng.RunStats(),
		}
		var tstats map[string]plancache.Stats
		// The virtual clock, cache stats, and fault counters read state that
		// executions on this shard mutate; read them under the shard lock.
		if err := s.do(sh, func() {
			st.VirtualNowNs = sh.eng.Machine().Now()
			st.Cache.Stats = sh.cache.Stats()
			search := sh.cache.SearchStats()
			st.Cache.Search = SearchStatsInfo{Runs: search.Runs, Reused: search.Reused, Us: search.Ns / 1e3}
			st.Faults = sh.eng.Machine().Faults()
			tstats = sh.cache.TenantStats()
		}); err != nil {
			// The server is closing mid-snapshot.
			s.writeErr(b, w, http.StatusServiceUnavailable, err)
			return
		}
		for tag, tst := range tstats {
			if i, ok := tenantIdx[tag]; ok {
				resp.Tenants[i].Cache.Add(tst)
			}
		}
		resp.PerShard = append(resp.PerShard, st)
		resp.Cache.Add(st.Cache.Stats)
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
			RehydratedSessions:    resp.Cache.Rehydrated,
			WarmSeededSessions:    resp.Cache.WarmSeeds,
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
	if s.cfg.Federation != nil {
		resp.Cluster = s.cfg.Federation.ClusterStats()
	}
	b.reply(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(b *ioBuf, w http.ResponseWriter, r *http.Request) {
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
	b.reply(w, code, resp)
}
