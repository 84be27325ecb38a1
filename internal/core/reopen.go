package core

import "repro/internal/plan"

// Reopening convergence. A converged session pins its best plan and serves it
// forever, which turns the paper's headline artifact into a liability the
// moment the machine, the workload or the data changes underneath it. The
// plan-session cache (internal/plancache) watches the serving runs and
// decides when to reopen; this file is what a reopen does. Two verbs reach
// the one reopenInstance body, and they differ only in what they seed from,
// what bar the new best must clear, and how the fresh instance is sized.
//
// Reopen takes serving evidence: a latency observed far off the converged
// expectation (ExpectNs), under the core budget it was served with. It
// restarts exploration from the session's *serial* plan — the mutator only
// ever adds parallelism, so regrowing from serial is the only trajectory that
// can land on a lower-DOP optimum when the machine shrank or the plan now
// serves under a small admission budget (a session restored from a snapshot
// has no serial plan and restarts from its best instead). The fresh instance
// is sized to that budget, or to the machine's post-fault available cores,
// so the leaking-debit threshold — and with it the re-convergence bound —
// shrinks with the hardware. The previously-best plan stays in s.best and
// keeps serving via Best() until a run *better than the observed serving
// level* dethrones it; if bounded re-exploration finds nothing below that
// bar, the session re-pins the old best with its expectation reset to the
// observed level — reopening never makes serving worse than the stale plan
// was, and a re-pin does not re-trip the detector.
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

// reopenExtraRuns is a reopened instance's ConvergenceConfig.ExtraRuns,
// whatever the reason: slightly under the cold default of 8, and the
// instance is also sized to the machine as it now is, so both the leak
// threshold and the total bound shrink with the hardware.
const reopenExtraRuns = 6

// appendOutliers appends the current convergence instance's outlier runs to
// dst at their absolute attempt indices: the instance's runs are always the
// session's last conv.Run() attempts.
func (s *Session) appendOutliers(dst []int) []int {
	base := len(s.attempts) - s.conv.Run()
	for _, o := range s.conv.outliers {
		dst = append(dst, base+o)
	}
	return dst
}

// ExpectNs returns the converged serving expectation the plan cache judges
// serving runs against (0 until the first convergence and while reopened).
func (s *Session) ExpectNs() float64 { return s.expectNs }

// reopenInstance is the one reopen body: the current credit/debit instance's
// outliers are kept for the report and a fresh bounded instance — cores
// and reopenExtraRuns size it (cores < 1 keeps the previous sizing) — takes
// over, restarting from seed. barNs is the serving level a run must beat to
// dethrone the incumbent best (0 = no bar: run 0 re-baselines the seed and
// GME tracking restarts).
func (s *Session) reopenInstance(seed *plan.Plan, barNs float64, cores int) {
	s.outliers = s.appendOutliers(s.outliers)
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
	s.done.Store(false)
}

// ReopenForData marks the session's measurements stale after a dataset epoch
// bump and reopens convergence warm, seeded from the learned best plan. It
// works on converged and still-adapting sessions alike (an epoch can bump
// mid-adaptation). It reports whether it reopened: a session that has never
// executed is already fresh and is left untouched.
func (s *Session) ReopenForData() bool {
	if len(s.attempts) == 0 {
		// Never executed: nothing measured, nothing stale. The next Step
		// runs against the new data as run 0.
		return false
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
	s.reopenInstance(s.best, 0, cores)
	return true
}

// Reopen reopens a converged session on serving evidence: observedNs is the
// serving latency that tripped a detector, cores the core budget the session
// serves with (<= 0 or above the machine: the machine's available cores).
// Exploration restarts from the serial plan (a restored session's best)
// sized to that budget; the previously-best plan keeps serving until a run
// beats observedNs. Returns false when the session is not converged (an
// adapting session will re-fit on its own).
func (s *Session) Reopen(observedNs float64, cores int) bool {
	if !s.done.Load() {
		return false
	}
	if avail := s.eng.Machine().AvailableCores(); cores <= 0 || (avail >= 1 && cores > avail) {
		cores = avail
	}
	seed := s.reopenFrom
	if seed == nil {
		seed = s.best
	}
	s.reopenInstance(seed, observedNs, cores)
	return true
}
