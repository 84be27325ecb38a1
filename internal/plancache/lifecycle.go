package plancache

// Dataset-epoch and tenant-lifecycle operations (ROADMAP items 5a and 5d).
// Both touch engine state through the sessions they reopen or release
// (plan retirement returns arena buffers to the engine pool), so — like
// InvokeTenant — the caller must hold the engine-ownership lock of the shard
// this cache belongs to. The internal/server mutation path holds every shard's
// lock while it swaps a tenant's catalog and calls these.

// ReopenTenantForData marks every one of tenant's sessions stale after a
// dataset epoch bump and reopens them warm (core.Session.ReopenForData):
// converged sessions re-baseline their learned plan on the new data with a
// bounded instance, still-adapting sessions fold their partial instance and
// continue from the best plan so far; a session that never ran is left as
// is. Every session's detector windows are emptied. Returns how many
// sessions were reopened.
func (c *Cache) ReopenTenantForData(tenant string) (reopened int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.byFP {
		if e.Tenant != tenant {
			continue
		}
		if e.Session.ReopenForData() {
			reopened++
		}
		e.resetWindows()
	}
	c.tenantCounterLocked(tenant).DataReopens += int64(reopened)
	return reopened
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
