package plancache

import "repro/internal/core"

// Dataset-epoch and tenant-lifecycle operations (ROADMAP items 5a and 5d).
// All three touch engine state through the sessions they reopen or release
// (plan retirement returns arena buffers to the engine pool), so — like
// InvokeTenant — the caller must hold the engine-ownership lock of the shard
// this cache belongs to. The internal/server mutation path holds every shard's
// lock while it swaps a tenant's catalog and calls these.

// ReopenTenantForData marks every one of tenant's sessions stale after a
// dataset epoch bump and reopens them warm (core.Session.ReopenForData):
// converged sessions re-baseline their learned plan on the new data with a
// bounded instance, still-adapting sessions fold their partial instance and
// continue from the best plan so far. Sessions with no plan to seed from are
// dropped without persistence. Returns how many sessions were reopened warm
// and how many dropped.
func (c *Cache) ReopenTenantForData(tenant string) (reopened, dropped int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var victims []*Entry
	for _, e := range c.byFP {
		if e.Tenant != tenant {
			continue
		}
		before := e.Session.DataReopens()
		if !e.Session.ReopenForData() {
			victims = append(victims, e)
			continue
		}
		if e.Session.DataReopens() > before {
			reopened++
		}
		e.resetDrift()
	}
	for _, e := range victims {
		// Old-epoch state with no plan: not worth persisting.
		c.removeLocked(e, false)
		dropped++
	}
	c.dataReopens += int64(reopened)
	c.tenantCounterLocked(tenant).DataReopens += int64(reopened)
	return reopened, dropped
}

// RestoreWarm inserts a session rehydrated from a store record whose dataset
// epoch no longer matches the live dataset: the caller has already reopened
// it warm (ReopenForData), so unlike Restore the session need not be Done —
// it serves as a warm seed and re-converges on the request stream. Counted
// as a warm seed, not a rehydration.
func (c *Cache) RestoreWarm(tenant, fp, query string, sess *core.Session) *Entry {
	if sess == nil || sess.Best() == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byFP[fp]; ok {
		return nil
	}
	e := c.insertLocked(tenant, fp, query, sess)
	c.tick++
	e.lastUsed = c.tick
	c.warmSeeds++
	c.tenantCounterLocked(tenant).WarmSeeds++
	return e
}

// EvictTenant removes every session belonging to tenant — the tenant-removal
// drain. With persist set, converged sessions are handed to the persistence
// hook on the way out, so a later re-add of the same dataset rehydrates hot.
// The tenant's mix signature and quota are dropped with its sessions.
// Returns how many sessions were removed.
func (c *Cache) EvictTenant(tenant string, persist bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var victims []*Entry
	for _, e := range c.byFP {
		if e.Tenant == tenant {
			victims = append(victims, e)
		}
	}
	for _, e := range victims {
		c.removeLocked(e, persist)
	}
	delete(c.mixes, tenant)
	delete(c.quotas, tenant)
	return len(victims)
}
