package core

import (
	"fmt"
	"slices"

	"repro/internal/exec"
	"repro/internal/plan"
)

// Halt says why a convergence instance stopped exploring.
type Halt uint8

// HaltBudget: the credit/debit balance ran out (§3.2–3.3). It is the zero
// value and, for now, the only reason an instance halts; restore refuses any
// other.
const HaltBudget Halt = 0

// Snapshot is the persistent essence of a converged adaptation: the best
// plan plus everything needed to rebuild the convergence state machine by
// replay. Observe is a pure function of the execution-time sequence, so the
// history and the configuration together determine the credit/debit balance,
// the GME, and the outlier set — no internal counters need to be stored.
//
// History and Outliers are the whole session's, across reopens (what Report
// returns); Start is the index of the last convergence instance's first run,
// the only instance restore replays. Config is that instance's.
type Snapshot struct {
	Config   ConvergenceConfig
	History  []float64
	Outliers []int
	Start    int
	Halt     Halt
	BestPlan *plan.Plan
}

// Snapshot captures the session's persistent state. Only converged sessions
// snapshot: an in-flight adaptation's next mutation depends on the last
// run's profile, which is engine state we deliberately do not serialize.
func (s *Session) Snapshot() (*Snapshot, error) {
	if !s.done.Load() {
		return nil, fmt.Errorf("core: snapshot of unconverged session (run %d)", s.conv.Run())
	}
	rep := s.Report()
	return &Snapshot{
		Config:   s.conv.Config(),
		History:  rep.History,
		Outliers: rep.Outliers,
		Start:    len(s.attempts) - s.conv.Run(),
		BestPlan: s.best,
	}, nil
}

// RestoreSession rebuilds a converged session on eng from a snapshot. The
// last convergence instance is reconstructed by replaying History[Start:]
// through Observe; the replay must terminate exactly at the last history
// entry, or the snapshot is rejected as corrupt (or produced by an
// incompatible convergence algorithm). Earlier entries become attempts and
// earlier outliers stay on the session, as a reopen leaves them.
//
// The restored session serves exactly like the original — Done, Best,
// ExpectNs, Summary, and Report agree with the pre-snapshot session — except
// after a re-pin (a reopen in which nothing beat the bar, so the old best was
// kept): restore then takes the last instance's GME as the best run and the
// expectation. Per-run Attempt details beyond execution times (plans,
// profiles, result vectors) are not persisted: restored attempts carry only
// ExecNs. A reopened restored session mutates with DefaultMutationConfig,
// like every cached session.
func RestoreSession(eng *exec.Engine, snap *Snapshot) (*Session, error) {
	if snap.BestPlan == nil {
		return nil, fmt.Errorf("core: restore: snapshot has no plan")
	}
	if snap.Halt != HaltBudget {
		return nil, fmt.Errorf("core: restore: unknown halt reason %d", snap.Halt)
	}
	if snap.Start < 0 || snap.Start >= len(snap.History) {
		return nil, fmt.Errorf("core: restore: instance start %d outside a history of %d runs", snap.Start, len(snap.History))
	}
	conv := NewConvergence(snap.Config)
	last := snap.History[snap.Start:]
	for i, ns := range last {
		if cont := conv.Observe(ns); cont == (i == len(last)-1) {
			// Either the replay halted before the history's end (extra
			// trailing entries the algorithm would never have produced) or
			// the final entry did not halt it (a truncated history).
			return nil, fmt.Errorf("core: restore: history of %d runs does not replay to convergence at run %d", len(snap.History), snap.Start+i)
		}
	}
	attempts := make([]Attempt, len(snap.History))
	for i, ns := range snap.History {
		attempts[i] = Attempt{ExecNs: ns}
	}
	sess := &Session{
		eng:       eng,
		mut:       NewMutator(DefaultMutationConfig()),
		conv:      conv,
		cur:       snap.BestPlan,
		attempts:  attempts,
		best:      snap.BestPlan,
		bestRun:   snap.Start,
		dethroned: true,
	}
	// Outliers before Start are the finished instances', increasing attempt
	// indices past the serial run; the rest must be the replay's, at
	// absolute attempt indices.
	k := 0
	for ; k < len(snap.Outliers) && snap.Outliers[k] < snap.Start; k++ {
		if o := snap.Outliers[k]; o < 1 || k > 0 && o <= snap.Outliers[k-1] {
			return nil, fmt.Errorf("core: restore: outlier runs %v are not increasing attempt indices", snap.Outliers)
		}
	}
	sess.outliers = slices.Clone(snap.Outliers[:k])
	if got := sess.appendOutliers(nil); !slices.Equal(got, snap.Outliers[k:]) {
		return nil, fmt.Errorf("core: restore: replay flagged outlier runs %v, snapshot recorded %v", got, snap.Outliers[k:])
	}
	if _, run, ok := conv.GME(); ok {
		sess.bestRun += run
	}
	sess.expectNs = attempts[sess.bestRun].ExecNs
	sess.done.Store(true)
	return sess, nil
}
