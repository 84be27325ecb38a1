package exec

// runRecord is a plan object's last event-core run through ExecuteOpts that
// met the machine-side replay conditions: it started on a quiescent machine
// (sim.Machine.Quiescent) with the shared-buffer exchange. Its timeline is
// then a function of the plan, the engine (machine and cost model), the core
// budget and every instruction's Work, so a later run that matches the last
// two repeats it. The catalog reaches the timeline only through Work. Recording
// costs the run nothing but this struct, and a record is never written again:
// a later run reads it only.
type runRecord struct {
	prof     *Profile
	maxCores int
	busyNs   float64 // machine busy time the run added
}

// matches reports whether j, evaluated and about to run on a quiescent
// machine, would repeat the recorded timeline: same core budget, and every
// instruction's freshly evaluated Work equal to the recorded run's. A run
// accounts every instruction exactly once, so the recording's Ops holds one
// entry per instruction, and equal lengths make the loop cover them all.
func (r *runRecord) matches(j *PlanJob) bool {
	if r.prof == nil || r.maxCores != j.maxCores || len(r.prof.Ops) != len(j.arena.work) {
		return false
	}
	for _, op := range r.prof.Ops {
		if j.arena.work[op.Instr] != op.Work {
			return false
		}
	}
	return true
}

// replay completes j without the event core: the machine advances by the
// recorded run's makespan and busy time, and j's profile is that run's
// timeline shifted to now, its Ops shared with the recording (read-only).
func (j *PlanJob) replay() {
	r := &j.sched.rec
	m := j.eng.mach
	start := m.Now()
	m.Replay(r.prof.Makespan(), r.busyNs)
	j.Profile = &Profile{StartNs: start, EndNs: m.Now(), Machine: r.prof.Machine, Ops: r.prof.Ops, replayOf: r.prof}
	j.Done = true
	j.eng.replayedRuns.Add(1)
	a := j.arena
	j.arena = nil
	a.release(j.sched)
}

// RunStats counts plan runs for /stats by how their virtual time was found,
// and how many of them a helper evaluated beside their owner.
type RunStats struct {
	// Simulated runs went through the event core; Replayed runs repeated the
	// plan object's recorded timeline instead (ExecuteOpts). Helped runs had
	// at least one instruction evaluated by the evaluation helper (helper.go),
	// whichever way their virtual time was found.
	Replayed  int64 `json:"replayed"`
	Simulated int64 `json:"simulated"`
	Helped    int64 `json:"helped"`
}

// RunStats snapshots the engine's run counters.
func (e *Engine) RunStats() RunStats {
	return RunStats{Replayed: e.replayedRuns.Load(), Simulated: e.simulatedRuns.Load(), Helped: e.helpedRuns.Load()}
}
