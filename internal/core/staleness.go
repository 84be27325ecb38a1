package core

import "math"

// Staleness detection: the adaptivity claim under drift (ROADMAP item 5). A
// converged session pins its best plan and serves it forever — which turns
// the paper's headline artifact into a liability the moment the machine
// changes underneath it (core loss, throttling, sustained interference). A
// session fed the execution times of its post-convergence serving runs
// (ObserveServed) watches them: when they deviate from the converged
// expectation beyond staleBand for staleWindow consecutive runs, the session
// *reopens* convergence — a fresh, bounded credit/debit instance whose
// serial baseline is the stale plan's performance on the machine as it now
// is — and adapts again instead of pinning the stale plan. The persistent
// store is updated only when the reopened instance converges (the
// plan-session cache persists on done-transitions, and a reopened session is
// not done).
//
// The band is symmetric: runs far *below* expectation also reopen, because a
// machine that got faster (throttle lifted, interference ended) changes the
// optimum too — the paper's adaptivity cuts both ways.

// Staleness detection's constants. The band sits far above the noise floor
// (±3% jitter) but well below the slowdown of losing cores or an SMT
// sibling's worth of throughput, and staleWindow consecutive spikes at
// DefaultNoise rates are a ~10^-7 event. A reopened instance (any reason)
// gets reopenExtraRuns post-threshold runs, slightly under the cold default
// of 8; it is also sized to the machine as it now is, so both the leak
// threshold and the total bound shrink with the hardware.
const (
	staleBand       = 0.35 // tolerated |observed − expectation| / expectation
	staleWindow     = 3    // consecutive out-of-band servings that reopen
	reopenExtraRuns = 6    // ConvergenceConfig.ExtraRuns of a reopened instance
)

// BandWindow is the one out-of-band latency detector, shared by staleness
// detection (here) and workload-drift detection (internal/plancache): it
// watches the most recent window observations and trips while at least trip
// of them deviated from their expectation by more than band. trip == window
// is the "N consecutive" rule — any in-band observation inside the window
// holds the count below it. The zero value never trips and must not be
// observed; build one with NewBandWindow.
type BandWindow struct {
	band float64
	trip int
	ring []bool // was each of the last len(ring) observations out of band
	next int    // ring slot the next observation overwrites
	outs int    // out-of-band count within the ring
}

// NewBandWindow returns a detector over the last window observations that
// trips at trip out-of-band ones, band being the tolerated relative deviation
// |observed − expect| / expect.
func NewBandWindow(band float64, window, trip int) BandWindow {
	return BandWindow{band: band, trip: trip, ring: make([]bool, window)}
}

// Observe records one observation against its expectation (both > 0). out
// reports whether it fell outside the band; tripped whether the window now
// holds at least trip out-of-band observations. The window keeps sliding
// after a trip — a caller that acts on one calls Reset.
func (w *BandWindow) Observe(observed, expect float64) (out, tripped bool) {
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

// Reset forgets every recorded observation.
func (w *BandWindow) Reset() {
	clear(w.ring)
	w.next, w.outs = 0, 0
}

// ObserveServed feeds the virtual execution time of one post-convergence
// serving run (an execution of Best outside the adaptation loop) into
// staleness detection. It reports whether the observation tripped the
// detector and reopened convergence — after a true return the session is no
// longer Done and the next Step re-explores from the previously-best plan.
//
// Detection is armed by whoever calls this: the plan-session cache calls it
// only when its Staleness switch is set. Not every serving run qualifies:
// runs executed under an admission-control core budget below the plan's
// needs reflect the budget, not the machine, and must not be fed here (the
// plan-session cache skips them).
func (s *Session) ObserveServed(execNs float64) bool {
	if !s.done.Load() || execNs <= 0 {
		return false
	}
	expect := s.expectNs
	if expect <= 0 {
		// Session converged before expectations were tracked (or was built
		// by hand in a test): derive it from the convergence instance.
		if gme, _, ok := s.conv.GME(); ok {
			expect = gme
		} else {
			expect = s.conv.Serial()
		}
		s.expectNs = expect
	}
	if expect <= 0 {
		return false
	}
	if _, tripped := s.staleWin.Observe(execNs, expect); !tripped {
		return false
	}
	// Sized to the machine as it now is: the post-fault available cores.
	s.reopenInstance(s.exploreSeed(), execNs, s.eng.Machine().AvailableCores())
	return true
}
