package plancache

import "math"

// Workload-drift detection (ROADMAP item 5b). Staleness detection
// (core.Session.ObserveServed) deliberately ignores throttled servings: a
// converged plan executed under an admission core budget below its width is
// slow because of the budget, not the machine, so feeding those latencies to
// the staleness detector would reopen sessions on every busy period. But when the
// *workload mix* shifts — a query that converged as the tenant's dominant
// (and therefore mostly unthrottled) query becomes a minority query that
// mostly serves under small budgets — that throttled latency IS the session's
// new reality, and the wide plan it converged on is the wrong plan for it.
//
// The drift detector fills exactly that gap. Per tenant, the cache tracks a
// sliding query-mix signature (the share each fingerprint holds of the
// tenant's recent invocations); per entry, it snapshots the entry's own share
// at convergence time and watches a window of post-convergence servings —
// throttled or not — against the converged expectation. When a sustained
// fraction of the window is out of band AND the entry's mix share has moved
// materially from its convergence-time share, the session reopens via
// core.Session.ReopenForDrift, sized to the core budget it has actually been
// serving under, and re-converges onto a plan that fits the new regime.
//
// Both gates are necessary: the out-of-band window alone would trip on any
// transient busy burst (and a machine change is staleness detection's job);
// the mix-share gate alone would trip on harmless mix shifts whose latencies
// still meet expectations.

// Drift detection's constants. The band mirrors staleness detection's; the
// detector is the same core.BandWindow, but with driftTrip below
// driftWindow: under admission interleaving, unthrottled servings of the
// wide plan stay in band and would hold a consecutive rule below its count
// forever. mixDelta is the minimum absolute move of the entry's mix share
// (current vs convergence-time) that attributes out-of-band latency to
// workload drift.
const (
	driftBand   = 0.35 // tolerated |observed − expectation| / expectation
	driftWindow = 8    // recent converged servings of an entry watched
	driftTrip   = 6    // out-of-band servings of the window that trip
	mixLen      = 64   // invocations in a tenant's query-mix signature
	mixDelta    = 0.2  // mix-share move required to reopen
)

// mixWindow is one tenant's sliding query-mix signature: a ring of the last
// mixLen invocation fingerprints with per-fingerprint counts maintained
// incrementally, so share lookups are O(1).
type mixWindow struct {
	ring   []string
	next   int
	filled int
	counts map[string]int
}

func newMixWindow(n int) *mixWindow {
	return &mixWindow{ring: make([]string, n), counts: make(map[string]int)}
}

// observe records one invocation of fp and returns fp's share of the window.
func (m *mixWindow) observe(fp string) float64 {
	if m.filled == len(m.ring) {
		old := m.ring[m.next]
		if m.counts[old] <= 1 {
			delete(m.counts, old)
		} else {
			m.counts[old]--
		}
	} else {
		m.filled++
	}
	m.ring[m.next] = fp
	m.counts[fp]++
	m.next = (m.next + 1) % len(m.ring)
	return float64(m.counts[fp]) / float64(m.filled)
}

// observeMixLocked feeds one invocation of fp into tenant's mix signature and
// returns fp's current share. Caller holds c.mu.
func (c *Cache) observeMixLocked(tenant, fp string) float64 {
	if c.mixes == nil {
		c.mixes = make(map[string]*mixWindow)
	}
	m, ok := c.mixes[tenant]
	if !ok {
		m = newMixWindow(mixLen)
		c.mixes[tenant] = m
	}
	return m.observe(fp)
}

// observeDrift feeds one converged serving run into the entry's drift window
// and reopens the session when both the latency and the mix-share gates
// trip. ns is the serving latency, maxCores the admission budget it ran under
// (0 = unlimited), logical the machine's logical core count, share the
// entry's current mix share. Runs on the invocation path outside c.mu — the
// drift fields are only ever touched by the (caller-serialized) invocation
// stream, like the session itself.
func (c *Cache) observeDrift(e *Entry, ns float64, maxCores, logical int, share float64) bool {
	expect := e.Session.ExpectNs()
	if expect <= 0 || ns <= 0 {
		return false
	}
	if e.convShare < 0 {
		// Restored (or pre-drift-era) session: no convergence-time share was
		// recorded. Adopt the current share as the baseline — drift is then
		// judged against the mix as it stood when serving resumed.
		e.convShare = share
	}
	out, tripped := e.drift.Observe(ns, expect)
	if out {
		b := maxCores
		if b <= 0 || b > logical {
			b = logical
		}
		e.driftBudget = b
	}
	if !tripped {
		return false
	}
	if math.Abs(share-e.convShare) < mixDelta {
		return false
	}
	if !e.Session.ReopenForDrift(ns, e.driftBudget) {
		return false
	}
	e.resetDrift()
	return true
}

// resetDrift clears the entry's drift window and convergence-time share; the
// next done-transition records a fresh share.
func (e *Entry) resetDrift() {
	e.drift.Reset()
	e.driftBudget = 0
	e.convShare = -1
}
