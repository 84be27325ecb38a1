package core

import (
	"fmt"
	"slices"

	"repro/internal/exec"
	"repro/internal/plan"
)

// Snapshot is the persistent essence of a converged adaptation: the best
// plan plus everything needed to rebuild the convergence state machine by
// replay. Observe is a pure function of the execution-time sequence, so the
// history and the configuration together determine the credit/debit balance,
// the GME, and the outlier set — no internal counters need to be stored.
type Snapshot struct {
	Config   ConvergenceConfig
	History  []float64
	Outliers []int
	BestPlan *plan.Plan
}

// Snapshot captures the session's persistent state. Only converged sessions
// snapshot: an in-flight adaptation's next mutation depends on the last
// run's profile, which is engine state we deliberately do not serialize.
func (s *Session) Snapshot() (*Snapshot, error) {
	if !s.done.Load() {
		return nil, fmt.Errorf("core: snapshot of unconverged session (run %d)", s.conv.Run())
	}
	return &Snapshot{
		Config:   s.conv.Config(),
		History:  s.conv.History(),
		Outliers: s.conv.Outliers(),
		BestPlan: s.best,
	}, nil
}

// RestoreSession rebuilds a converged session on eng from a snapshot. The
// convergence state machine is reconstructed by replaying the recorded
// history through Observe; the replay must terminate exactly at the last
// history entry, or the snapshot is rejected as corrupt (or produced by an
// incompatible convergence algorithm).
//
// The restored session serves exactly like the original — Done, Best,
// Summary, and Report agree with the pre-snapshot session — but per-run
// Attempt details beyond execution times (plans, profiles, result vectors)
// are not persisted: restored attempts carry only ExecNs. A reopened restored
// session mutates with DefaultMutationConfig, like every cached session.
func RestoreSession(eng *exec.Engine, snap *Snapshot) (*Session, error) {
	if snap.BestPlan == nil {
		return nil, fmt.Errorf("core: restore: snapshot has no plan")
	}
	if len(snap.History) == 0 {
		return nil, fmt.Errorf("core: restore: snapshot has empty history")
	}
	conv := NewConvergence(snap.Config)
	for i, ns := range snap.History {
		if cont := conv.Observe(ns); cont == (i == len(snap.History)-1) {
			// Either the replay halted before the history's end (extra
			// trailing entries the algorithm would never have produced) or
			// the final entry did not halt it (a truncated history).
			return nil, fmt.Errorf("core: restore: history of %d runs does not replay to convergence at run %d", len(snap.History), i)
		}
	}
	if got := conv.Outliers(); !slices.Equal(got, snap.Outliers) {
		return nil, fmt.Errorf("core: restore: replay flagged outlier runs %v, snapshot recorded %v", got, snap.Outliers)
	}
	attempts := make([]Attempt, len(snap.History))
	for i, ns := range snap.History {
		attempts[i] = Attempt{ExecNs: ns}
	}
	bestRun := 0
	if _, run, ok := conv.GME(); ok {
		bestRun = run
	}
	sess := &Session{
		eng:       eng,
		mut:       NewMutator(DefaultMutationConfig()),
		conv:      conv,
		cur:       snap.BestPlan,
		attempts:  attempts,
		best:      snap.BestPlan,
		bestRun:   bestRun,
		expectNs:  attempts[bestRun].ExecNs,
		dethroned: true,
	}
	sess.done.Store(true)
	return sess, nil
}
