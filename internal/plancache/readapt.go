package plancache

import "math"

// Re-adaptation: when a converged session stops serving what it converged
// to, the cache reopens it (core.Session.Reopen) instead of pinning a plan
// that is no longer the global minimum. Every converged serving the cache
// executes — of a session it created, restored or warm-seeded alike — goes
// through observeServed, which applies two detectors in order, each armed by
// one Config switch. Both judge the serving latency against the session's
// converged expectation (core.Session.ExpectNs) with the one bandWindow, at
// the one ±servingBand.
//
// Staleness: the machine changed under the plan (core loss, throttling,
// sustained interference). When staleWindow consecutive full-budget servings
// fall outside the band, the session reopens sized to the machine's
// available cores. The band is symmetric: servings far *below* expectation
// also reopen, because a machine that got faster changes the optimum too.
// Throttled servings are skipped: a converged plan executed under an
// admission core budget below its width is slow because of the budget, not
// the machine, and feeding it would reopen sessions on every busy period.
//
// Workload drift fills exactly that gap. When the *workload mix* shifts — a
// query that converged as its tenant's dominant (and therefore mostly
// unthrottled) query becomes a minority query that mostly serves under small
// budgets — that throttled latency IS the session's new reality, and the
// wide plan it converged on is the wrong plan for it. Per tenant, the cache
// tracks a sliding query-mix signature (the share each fingerprint holds of
// the tenant's recent invocations); per entry, it snapshots the entry's own
// share at convergence and watches every post-convergence serving, throttled
// or not. When a sustained fraction of the window is out of band AND the
// entry's share has moved materially from its convergence-time share, the
// session reopens sized to the core budget it has actually been serving
// under. Both gates are necessary: the out-of-band window alone would trip on
// any transient busy burst (and a machine change is staleness's job); the
// mix-share gate alone would trip on harmless mix shifts whose latencies
// still meet expectations.
//
// Frozen servings (breaker open) feed neither detector. Every reopen the
// cache causes or applies (ReopenTenantForData) empties both windows.

// The detectors' constants. The band sits far above the noise floor (±3 %
// jitter) but well below the slowdown of losing cores or an SMT sibling's
// worth of throughput, and staleWindow consecutive spikes at the default
// noise rate are a ~10^-7 event. Drift's driftTrip sits below driftWindow:
// under admission interleaving, unthrottled servings of the wide plan stay in
// band and would hold a consecutive rule below its count forever. mixDelta is
// the minimum absolute move of the entry's mix share (current vs
// convergence-time) that attributes out-of-band latency to workload drift.
const (
	servingBand = 0.35 // tolerated |observed − expectation| / expectation
	staleWindow = 3    // consecutive out-of-band servings that reopen
	driftWindow = 8    // recent converged servings of an entry watched
	driftTrip   = 6    // out-of-band servings of the window that trip
	mixLen      = 64   // invocations in a tenant's query-mix signature
	mixDelta    = 0.2  // mix-share move required to reopen
)

// bandWindow is the one out-of-band latency detector: it watches the most
// recent window observations and trips while at least trip of them deviated
// from their expectation by more than band. trip == window is the "N
// consecutive" rule — any in-band observation inside the window holds the
// count below it. The zero value never trips and must not be observed; build
// one with newBandWindow.
type bandWindow struct {
	band float64
	trip int
	ring []bool // was each of the last len(ring) observations out of band
	next int    // ring slot the next observation overwrites
	outs int    // out-of-band count within the ring
}

// newBandWindow returns a detector over the last window observations that
// trips at trip out-of-band ones, band being the tolerated relative deviation
// |observed − expect| / expect.
func newBandWindow(band float64, window, trip int) bandWindow {
	return bandWindow{band: band, trip: trip, ring: make([]bool, window)}
}

// observe records one observation against its expectation (both > 0). out
// reports whether it fell outside the band; tripped whether the window now
// holds at least trip out-of-band observations. The window keeps sliding
// after a trip — a caller that acts on one calls reset.
func (w *bandWindow) observe(observed, expect float64) (out, tripped bool) {
	out = math.Abs(observed-expect)/expect > w.band
	if w.ring[w.next] {
		w.outs--
	}
	w.ring[w.next] = out
	w.next = (w.next + 1) % len(w.ring)
	if out {
		w.outs++
	}
	return out, w.outs >= w.trip
}

// reset forgets every recorded observation.
func (w *bandWindow) reset() {
	clear(w.ring)
	w.next, w.outs = 0, 0
}

// observeServed applies the armed detectors, staleness first, to one
// converged serving of e: ns is its latency, maxCores the admission budget it
// ran under (0 = unlimited), throttled whether that budget is below the
// session's sizing, logical the machine's logical core count, share the
// entry's current mix share. It reports which detector reopened the session,
// if one did. Runs on the invocation path outside c.mu — the windows are
// only ever touched by the (caller-serialized) invocation stream and the
// lifecycle operations holding the same shard lock, like the session itself.
func (c *Cache) observeServed(e *Entry, ns float64, maxCores int, throttled bool, logical int, share float64) (stale, drifted bool) {
	expect := e.Session.ExpectNs()
	if expect <= 0 || ns <= 0 {
		return false, false
	}
	if c.cfg.Staleness && !throttled {
		if _, tripped := e.stale.observe(ns, expect); tripped {
			// Sized to the machine as it now is: the available cores.
			e.Session.Reopen(ns, 0)
			e.resetWindows()
			return true, false
		}
	}
	if !c.cfg.Drift {
		return false, false
	}
	if e.convShare < 0 {
		// Restored session: no convergence-time share was recorded. Adopt
		// the current share as the baseline — drift is then judged against
		// the mix as it stood when serving resumed.
		e.convShare = share
	}
	out, tripped := e.drift.observe(ns, expect)
	if out {
		e.driftBudget = maxCores
		if maxCores <= 0 || maxCores > logical {
			e.driftBudget = logical
		}
	}
	if !tripped || math.Abs(share-e.convShare) < mixDelta {
		return false, false
	}
	e.Session.Reopen(ns, e.driftBudget)
	e.resetWindows()
	return false, true
}

// resetWindows empties both of the entry's windows and forgets its
// convergence-time share; the next done-transition records a fresh one.
func (e *Entry) resetWindows() {
	e.stale.reset()
	e.drift.reset()
	e.driftBudget = 0
	e.convShare = -1
}

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
