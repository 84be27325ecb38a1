// Convergence records in and out of the serving state: the persistence hook
// that produces them, rehydration from the store, and peer-to-peer intake —
// the last two through one identity-checked applyRecord.
package server

import (
	"repro/internal/exec"
	"repro/internal/plancache"
	"repro/internal/store"
)

// persistHook is one shard cache's write-behind hook. It fires on
// convergence and converged eviction (cold events only — never the converged
// serving path) and just snapshots + enqueues; the synchronizer goroutine
// does the encoding batch-wise off the request path. The same record feeds
// the federation (its replicator runs its own instance of the queue).
func (s *Server) persistHook(eng *exec.Engine) func(*plancache.Entry) {
	return func(e *plancache.Entry) {
		tn := s.tenantByTag(e.Tenant)
		if tn == nil {
			return
		}
		snap, err := e.Session.Snapshot()
		if err != nil {
			return
		}
		// The record carries the tenant's epoch AT PERSIST TIME: a session
		// that converged against epoch-N data and is flushed after a bump to
		// N+1 was reopened by that bump (non-done, not persisted) — so a done
		// session's history always belongs to the live epoch.
		rec := store.NewRecord(e.Fingerprint, tn.DBIdentity, e.Tenant, e.Query, tn.epoch.Load(), snap, eng.Params())
		if s.sync != nil {
			s.sync.Enqueue(rec)
		}
		if s.cfg.Federation != nil {
			s.cfg.Federation.Observe(rec)
		}
	}
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
// converges afresh. It returns how many records went live served-converged
// and how many as warm seeds.
func (s *Server) rehydrate(st *store.Store, only *tenantState) (rehydrated, warmSeeded int64) {
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
		live, warm, err := s.applyRecord(&rec, tn)
		if err != nil {
			return rehydrated, warmSeeded // server closing mid-rehydration
		}
		switch {
		case live && warm:
			warmSeeded++
		case live:
			rehydrated++
		}
	}
	return rehydrated, warmSeeded
}

// applyRecord identity-checks one convergence record and restores it into
// its owning shard's cache — the shared core of startup rehydration and
// peer-to-peer replication. It reports whether the session went live (a
// skipped record is not an error: the query it belonged to simply converges
// afresh) and whether as a warm seed, and errors only when the server is
// closing. The shard cache counts what went live (Rehydrated, WarmSeeds).
func (s *Server) applyRecord(rec *store.Record, tn *tenantState) (live, warm bool, err error) {
	if tn.DBIdentity != rec.DBIdentity {
		s.skippedRecords.Add(1)
		return false, false, nil
	}
	sh := s.shardFor(rec.Fingerprint)
	if rec.CostParams != sh.eng.Params() {
		s.skippedRecords.Add(1)
		return false, false, nil
	}
	sess, err := rec.RestoreSession(sh.eng)
	if err != nil {
		s.skippedRecords.Add(1)
		return false, false, nil
	}
	warm = rec.Epoch != tn.epoch.Load()
	// Cache insertion under the shard's engine-ownership lock: at startup
	// it is uncontended; for runtime tenant addition and replicated records
	// it serializes against live serving on that shard.
	if err := s.do(sh, func() {
		if warm {
			sess.ReopenForData()
		}
		live = sh.cache.Restore(rec.Tenant, rec.Fingerprint, rec.Query, sess) != nil
	}); err != nil {
		return false, false, err
	}
	if !live {
		s.skippedRecords.Add(1)
	}
	return live, warm, nil
}

// applyReplica applies one replicated convergence record to the live serving
// state — the peer-to-peer equivalent of startup rehydration, with the same
// identity checks and warm-seed epoch semantics. A record whose fingerprint
// is already live in its shard's cache is left alone (the local session is
// at least as fresh). When a persistent store is configured the record is
// also written behind, so replicated plans survive this node's own restart.
// It reports whether the session went live.
func (s *Server) applyReplica(rec store.Record) bool {
	tn := s.tenantByTag(rec.Tenant)
	if tn == nil || tn.draining.Load() {
		s.skippedRecords.Add(1)
		return false
	}
	live, _, err := s.applyRecord(&rec, tn)
	if err != nil || !live {
		return false
	}
	if s.sync != nil {
		s.sync.Enqueue(rec)
	}
	return true
}
