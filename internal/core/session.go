package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
)

// Attempt records one adaptive run: the plan executed, its measured
// execution time, the full profile, and the mutation that produced the plan
// (MutationNone for the serial 0th run). Profile and Results are dropped when
// the next run is appended — the serving layer reads the latest attempt's,
// VerifyResults the serial 0th run's, which keeps both; Plan, ExecNs and
// Mutation stay for the whole trace.
type Attempt struct {
	Plan     *plan.Plan
	ExecNs   float64
	Profile  *exec.Profile
	Mutation Mutation
	Results  []exec.Value
}

// Report summarizes a converged adaptation (the quantities of Figure 18).
type Report struct {
	TotalRuns int
	GMERun    int
	GMENs     float64
	SerialNs  float64
	BestPlan  *plan.Plan
	History   []float64
	Outliers  []int
	Attempts  []Attempt
}

// Speedup returns serial time over GME time.
func (r *Report) Speedup() float64 {
	if r.GMENs <= 0 {
		return 1
	}
	return r.SerialNs / r.GMENs
}

// Session is one active adaptive-parallelization instance for a cached
// query (§2's workflow): execute → profile → mutate the most expensive
// operator → repeat, under control of the convergence algorithm.
type Session struct {
	eng  *exec.Engine
	mut  *Mutator
	conv *Convergence

	cur      *plan.Plan
	parent   *plan.Plan // plan cur was mutated from; cur's first run adopts its arena
	nextMut  Mutation
	attempts []Attempt
	best     *plan.Plan
	// search is the last mutation search that left the plan unchanged;
	// searches counts them all.
	search   searchMemo
	searches SearchStats
	// done is atomic so cache bookkeeping on other goroutines (eviction
	// victim selection, /stats aggregation) can poll Done while the owning
	// goroutine steps the session; every other field stays single-owner.
	done atomic.Bool

	// best is the plan Best serves and bestRun the attempt that measured it:
	// the serial run until a run dethrones it, and after a reopen seeded
	// from best, the fresh instance's run 0 (reopen.go).
	bestRun int
	// Reopened convergence (reopen.go). A reopen replaces conv with a fresh
	// instance whose run counter restarts at 0; outliers keeps the finished
	// instances' outlier runs at their absolute attempt indices for Report.
	outliers   []int
	reopenFrom *plan.Plan // serial plan re-exploration restarts from (nil: restored session)
	expectNs   float64    // converged serving expectation the plan cache judges servings against
	reopenBar  float64    // post-reopen: the stale serving level a new best must beat
	dethroned  bool       // the current convergence instance produced s.best

	// VerifyResults, when set, compares every run's results against the
	// serial run's — the central mutation-correctness invariant. Intended
	// for tests and examples; adds only comparison cost.
	VerifyResults bool
}

// NewSession starts an adaptation for serial plan p on eng. The convergence
// configuration defaults to the engine machine's logical core count.
func NewSession(eng *exec.Engine, p *plan.Plan, mcfg MutationConfig, ccfg ConvergenceConfig) *Session {
	if ccfg.Cores == 0 {
		ccfg = DefaultConvergenceConfig(eng.Machine().Config().LogicalCores())
	}
	return &Session{
		eng:        eng,
		mut:        NewMutator(mcfg),
		conv:       NewConvergence(ccfg),
		cur:        p,
		best:       p,
		reopenFrom: p,
	}
}

// Current returns the plan the next Step will execute.
func (s *Session) Current() *plan.Plan { return s.cur }

// Convergence exposes the convergence state.
func (s *Session) Convergence() *Convergence { return s.conv }

// Attempts returns the runs so far.
func (s *Session) Attempts() []Attempt { return s.attempts }

// Done reports whether the adaptation has converged. Safe to call from any
// goroutine.
func (s *Session) Done() bool { return s.done.Load() }

// Step executes the current plan once, feeds the execution time to the
// convergence algorithm, and (if adaptation continues) mutates the plan for
// the next invocation. It returns false when converged.
func (s *Session) Step() (bool, error) { return s.StepWith(exec.JobOptions{}) }

// StepWith is Step with per-run job options: the query-service daemon uses
// it to apply admission-control core budgets to adaptive runs happening on
// the production request stream.
func (s *Session) StepWith(opts exec.JobOptions) (bool, error) {
	if s.done.Load() {
		return false, nil
	}
	// s.cur was produced by mutating s.parent, so its first run can start
	// from the parent's settled arena instead of the pool's buffers.
	opts.DerivedFrom = s.parent
	results, prof, err := s.eng.ExecuteOpts(s.cur, opts)
	if err != nil {
		return false, fmt.Errorf("core: run %d: %w", s.conv.Run(), err)
	}
	execNs := prof.Makespan()
	if n := len(s.attempts); n > 1 {
		s.attempts[n-1].Profile, s.attempts[n-1].Results = nil, nil
	}
	s.attempts = append(s.attempts, Attempt{
		Plan: s.cur, ExecNs: execNs, Profile: prof, Mutation: s.nextMut, Results: results,
	})
	if s.VerifyResults && len(s.attempts) > 1 {
		if !exec.ResultsEqual(s.attempts[0].Results, results) {
			return false, fmt.Errorf("core: run %d: mutated plan results diverge from serial plan", s.conv.Run())
		}
	}
	cont := s.conv.Observe(execNs)
	if s.conv.Run() == 1 && s.cur == s.best {
		// The instance's run 0 executed the serving plan: a cold session's
		// serial run, or the seed of a reopen that re-baselines the best.
		s.bestRun = len(s.attempts) - 1
	} else if _, run, ok := s.conv.GME(); ok && run == s.conv.Run()-1 {
		// After a serving-evidence reopen, beating the reopened instance's
		// own baseline is not enough: the incumbent best only falls to a run
		// that beats the stale serving level the reopen recorded.
		if s.reopenBar == 0 || execNs < s.reopenBar {
			if old := s.best; old != s.cur && old != s.parent {
				// The dethroned global minimum will never execute again.
				s.eng.Retire(old)
			}
			s.best, s.bestRun = s.cur, len(s.attempts)-1
			s.dethroned = true
		}
	}
	if !cont {
		s.done.Store(true)
		// Fix the serving expectation the plan cache will judge future runs
		// against: the best plan's run — unless a fruitless reopen re-pinned
		// the old best, whose expectation is the stale serving level itself,
		// so the re-pin does not immediately re-trip the detector on a
		// permanently degraded machine.
		if s.reopenBar > 0 && !s.dethroned {
			s.expectNs = s.reopenBar
		} else {
			s.expectNs = s.attempts[s.bestRun].ExecNs
		}
		s.reopenBar = 0
		// Exploration over: only Best() executes from here on. Drop the
		// tail plans' compilations back into the engine's buffer pool.
		if s.parent != nil && s.parent != s.best {
			s.eng.Retire(s.parent)
		}
		if s.cur != s.best {
			s.eng.Retire(s.cur)
		}
		s.parent = nil
		s.search.clear()
		return false, nil
	}
	np, mut, err := s.mutate(prof)
	if err != nil {
		return false, fmt.Errorf("core: run %d mutation: %w", s.conv.Run(), err)
	}
	if np != s.cur {
		// The grandparent's schedule has served its purpose (cur's own
		// compilation is cached now); retire it — its buffers feed the
		// freshly mutated plan's first run — unless it is the best-so-far
		// plan, which must stay executable.
		if s.parent != nil && s.parent != s.best {
			s.eng.Retire(s.parent)
		}
		s.parent = s.cur
		s.cur = np
	}
	s.nextMut = mut
	return true, nil
}

// mutate decides the next plan from the current plan's run. A session
// draining its convergence budget (§3.3) keeps re-running a plan the
// mutator left unchanged, and a re-run of the same plan object over the same
// data replays its recorded profile, so the search would only repeat its
// answer: when the plan object and every input MutateMostExpensive reads
// from the profile equal the last unchanged search's, that answer is reused.
func (s *Session) mutate(prof *exec.Profile) (*plan.Plan, Mutation, error) {
	if s.search.matches(s.cur, prof) {
		s.searches.Reused++
		return s.cur, s.search.mut, nil
	}
	start := time.Now()
	np, mut, err := s.mut.MutateMostExpensive(s.cur, prof)
	s.searches.Runs++
	s.searches.Ns += int64(time.Since(start))
	if err == nil && np == s.cur {
		s.search.store(s.cur, prof, mut)
	} else {
		s.search.clear()
	}
	return np, mut, err
}

// SearchStats counts a session's mutation searches: Runs searches executed,
// Reused steps that took the previous unchanged search's answer instead, Ns
// the wall time spent in MutateMostExpensive.
type SearchStats struct {
	Runs, Reused, Ns int64
}

// Add accumulates o into st.
func (st *SearchStats) Add(o SearchStats) {
	st.Runs += o.Runs
	st.Reused += o.Reused
	st.Ns += o.Ns
}

// Since returns what st counted after before was taken.
func (st SearchStats) Since(before SearchStats) SearchStats {
	return SearchStats{Runs: st.Runs - before.Runs, Reused: st.Reused - before.Reused, Ns: st.Ns - before.Ns}
}

// SearchStats reports the session's mutation searches so far.
func (s *Session) SearchStats() SearchStats { return s.searches }

// searchMemo is one mutation search whose answer left the plan unchanged:
// the plan object searched, the profile inputs MutateMostExpensive reads —
// every op's Instr, Duration and Work.TuplesIn, in profile order (the order
// breaks duration ties) — and the Mutation it returned. The key holds those
// values, not the profile pointer: a replayed run shares its recording's
// Ops, but a run the event core simulates again (another core budget, a busy
// machine) or a new epoch's run has a profile of its own, equal or not.
type searchMemo struct {
	plan *plan.Plan
	key  []searchKey
	mut  Mutation
}

type searchKey struct {
	instr    int
	dur      float64
	tuplesIn int64
}

func (m *searchMemo) matches(p *plan.Plan, prof *exec.Profile) bool {
	if m.plan != p || len(m.key) != len(prof.Ops) {
		return false
	}
	for i, o := range prof.Ops {
		if k := m.key[i]; k.instr != o.Instr || k.dur != o.Duration() || k.tuplesIn != o.Work.TuplesIn {
			return false
		}
	}
	return true
}

func (m *searchMemo) store(p *plan.Plan, prof *exec.Profile, mut Mutation) {
	m.plan, m.mut = p, mut
	m.key = m.key[:0]
	for _, o := range prof.Ops {
		m.key = append(m.key, searchKey{instr: o.Instr, dur: o.Duration(), tuplesIn: o.Work.TuplesIn})
	}
}

func (m *searchMemo) clear() { m.plan = nil }

// Release hands the session's live plan compilations (current, parent, and
// best) back to the engine. The plan-session cache calls it on eviction so a
// long-gone session's arena buffers return to the engine pool instead of
// lingering until schedule-cache overflow. The session object itself remains
// readable (reports, attempts); executing it again just recompiles.
func (s *Session) Release() {
	for _, p := range []*plan.Plan{s.parent, s.cur, s.best} {
		if p != nil {
			s.eng.Retire(p)
		}
	}
}

// Converge drives Step until the convergence algorithm halts (or the safety
// cap of twice the theoretical upper bound trips, which would indicate a
// bug) and returns the report.
func (s *Session) Converge() (*Report, error) {
	cap := 2*s.conv.UpperBoundRuns() + 4
	for i := 0; i < cap; i++ {
		cont, err := s.Step()
		if err != nil {
			return nil, err
		}
		if !cont {
			return s.Report(), nil
		}
	}
	return nil, fmt.Errorf("core: convergence did not halt within %d runs", cap)
}

// Best returns the plan a post-convergence invocation should execute: the
// global-minimum plan once one exists, else the serial plan. O(1). After a
// reopen the previous best keeps serving until the reopened convergence
// dethrones it (or re-pins it, if bounded re-exploration found nothing
// better).
func (s *Session) Best() *plan.Plan { return s.best }

// Summary is the constant-time snapshot of an adaptation's headline
// numbers. Unlike Report it copies no history or attempt slices, so the
// serving hot path can read it per request without per-request allocation.
type Summary struct {
	Runs     int
	GMENs    float64
	SerialNs float64
	Done     bool
}

// Speedup returns serial time over GME time.
func (sm Summary) Speedup() float64 {
	if sm.GMENs <= 0 {
		return 1
	}
	return sm.SerialNs / sm.GMENs
}

// Summary snapshots the headline adaptation numbers in O(1): GMENs is the
// run that measured Best(), SerialNs the first serial run.
func (s *Session) Summary() Summary {
	sm := Summary{Runs: len(s.attempts), Done: s.done.Load()}
	if len(s.attempts) > 0 {
		sm.GMENs, sm.SerialNs = s.attempts[s.bestRun].ExecNs, s.attempts[0].ExecNs
	}
	return sm
}

// Report snapshots the adaptation outcome so far. Its history is every
// attempt's execution time, across reopens.
func (s *Session) Report() *Report {
	sm := s.Summary()
	history := make([]float64, len(s.attempts))
	for i, a := range s.attempts {
		history[i] = a.ExecNs
	}
	return &Report{
		TotalRuns: sm.Runs,
		GMERun:    s.bestRun,
		GMENs:     sm.GMENs,
		SerialNs:  sm.SerialNs,
		BestPlan:  s.best,
		History:   history,
		Outliers:  s.appendOutliers(append([]int(nil), s.outliers...)),
		Attempts:  s.attempts,
	}
}
