package core

import "repro/internal/plan"

// Reopening convergence. Three events reopen a session — staleness (the
// machine changed under a converged plan, staleness.go), a dataset epoch
// bump, and workload drift — and all three go through the one reopenInstance
// body below; they differ only in what they seed from, what bar the new best
// must clear, and how the fresh instance is sized.
//
// A staleness reopen restarts exploration from the session's *serial* plan —
// the mutator only ever adds parallelism, so regrowing from serial is the
// only trajectory that can land on a lower-DOP optimum when the machine
// shrank (a session restored from a snapshot has no serial plan and restarts
// from its best instead). The previously-best plan stays in s.best and keeps
// serving via Best() until a run *better than the stale serving level* (the
// observation that tripped the detector) dethrones it; if bounded
// re-exploration finds nothing below that bar, the session re-pins the old
// best with its expectation reset to the stale level — reopening never makes
// serving worse than the stale plan was, and a re-pin does not re-trip the
// detector. The reopened instance is sized to the machine as it now is: its
// Cores is the engine machine's post-fault available core count, so the
// leaking-debit threshold — and with it the re-convergence bound — shrinks
// with the machine.
//
// A dataset epoch bump invalidates a session's *measurements*, not its plan:
// plan partitions are binary-rational ranges over their anchor input (see
// internal/plan), so a learned plan re-executed against appended or truncated
// data still covers every tuple and produces correct results — only its cost
// expectations go stale. ReopenForData therefore seeds the fresh convergence
// instance from the learned best plan: run 0 re-baselines that plan on the
// new data, and the bounded instance only keeps exploring while mutation
// still pays. That is the "warm" in warm re-convergence — the session keeps
// everything it learned and spends a handful of runs re-validating it,
// instead of re-growing parallelism from the serial plan.
//
// Workload drift is the opposite case: the plan is the suspect, not the data.
// A session that converged under one admission regime (its query's share of
// the tenant mix) serves under another — wide plans throttled to small core
// budgets run far off their converged expectation. ReopenForDrift restarts
// from the serial plan, sized to the *observed* core budget, so bounded
// re-exploration can land on a narrower optimum; exactly the machine-shrank
// trajectory of a staleness reopen, with the budget standing in for lost
// cores.

// foldInstance folds the current convergence instance's trace into the
// report prefixes and advances runBase, so a fresh instance's run counter
// maps back to absolute attempt indices.
func (s *Session) foldInstance() {
	hist := s.conv.history
	s.histPrefix = append(s.histPrefix, hist...)
	for _, o := range s.conv.outliers {
		s.outlierPrefix = append(s.outlierPrefix, o+s.runBase)
	}
	s.runBase += len(hist)
}

// ExpectNs returns the converged serving expectation staleness and drift
// detection judge serving runs against (0 until the first convergence).
func (s *Session) ExpectNs() float64 { return s.expectNs }

// DataReopens reports how many dataset epoch bumps have reopened this
// session's convergence.
func (s *Session) DataReopens() int { return s.dataReopens }

// exploreSeed is the plan a re-exploring reopen (staleness, drift) restarts
// from: the serial plan, or for a restored session — which has none — its
// best.
func (s *Session) exploreSeed() *plan.Plan {
	if s.reopenFrom != nil {
		return s.reopenFrom
	}
	return s.Best()
}

// reopenInstance is the one reopen body: the current credit/debit instance
// is folded into the report prefix and a fresh bounded instance — cores and
// reopenExtraRuns size it (cores < 1 keeps the previous sizing) — takes over,
// restarting from seed. barNs is the serving level a run must beat to
// dethrone the incumbent best (0 = no bar: run 0 re-baselines the seed and
// GME tracking restarts).
func (s *Session) reopenInstance(seed *plan.Plan, barNs float64, cores int) {
	s.foldInstance()
	ccfg := s.conv.Config()
	ccfg.ExtraRuns = reopenExtraRuns
	if cores >= 1 {
		ccfg.Cores = cores
	}
	s.conv = NewConvergence(ccfg)
	// The exploration tail of an interrupted adaptation will never execute
	// again; only the seed — and a best that keeps serving while the fresh
	// instance explores — survive. (A converged session retired its tail at
	// convergence; retiring it again is a no-op.)
	for _, p := range [...]*plan.Plan{s.parent, s.cur} {
		if p != nil && p != seed && p != s.best {
			s.eng.Retire(p)
		}
	}
	s.cur = seed
	s.parent = nil
	s.nextMut = Mutation{}
	s.search.clear()
	s.reopenBar = barNs
	s.dethroned = false
	s.expectNs = 0
	s.staleWin.Reset()
	s.done.Store(false)
}

// ReopenForData marks the session's measurements stale after a dataset epoch
// bump and reopens convergence warm, seeded from the learned best plan. It
// works on converged and still-adapting sessions alike (an epoch can bump
// mid-adaptation); a session that has never executed is already fresh and is
// left untouched.
//
// Returns false only when the session has no plan to seed from — the caller
// should drop such a session rather than serve it against data it has never
// seen.
func (s *Session) ReopenForData() bool {
	seed := s.Best()
	if seed == nil {
		return false
	}
	if len(s.attempts) == 0 {
		// Never executed: nothing measured, nothing stale. The next Step
		// runs against the new data as run 0.
		return true
	}
	// A warm instance re-validates a learned plan rather than re-growing
	// parallelism from serial, so it does not need the cold lower bound of
	// cores+1 doubling runs: sizing it to a quarter of the machine starts
	// the leaking debit almost immediately and shrinks the post-threshold
	// budget, while leaving enough headroom to chase an optimum the
	// mutation moved (one or two more doublings).
	cores := s.eng.Machine().AvailableCores()
	if cores >= 1 {
		cores = max(cores/4, 2)
	}
	// Old-epoch measurements are incomparable with the new data: no bar.
	s.reopenInstance(seed, 0, cores)
	s.dataReopens++
	return true
}

// ReopenForDrift reopens a converged session whose serving conditions no
// longer match what it converged under: observedNs is the serving latency
// that tripped the drift detector, cores the admission core budget the
// session actually serves with (<= 0 or above the machine uses the machine's
// available cores). Exploration restarts from the serial plan sized to that
// budget; the previously-best plan keeps serving until a run beats
// observedNs, exactly as in a staleness reopen. Returns false when the
// session is not converged (an adapting session will re-fit on its own).
func (s *Session) ReopenForDrift(observedNs float64, cores int) bool {
	if !s.done.Load() {
		return false
	}
	if avail := s.eng.Machine().AvailableCores(); cores <= 0 || (avail >= 1 && cores > avail) {
		cores = avail
	}
	s.reopenInstance(s.exploreSeed(), observedNs, cores)
	return true
}
