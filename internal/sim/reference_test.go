// reference_test.go preserves the original (seed) event core verbatim as the
// equivalence oracle for the optimized Machine. The optimized core in
// machine.go restructures every hot loop but is required to perform the
// exact same floating-point operations on the exact same values in the same
// order, so the two cores must produce bit-identical virtual timelines; the
// golden test (golden_test.go) asserts that on generated scenarios, and
// BenchmarkEventCoreOptimized / BenchmarkEventCoreReference (bench_test.go)
// measure the wall-clock gap between them.
//
// Do not "improve" this file: its value is that it stays frozen.
package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Reference is the seed simulator: rates recomputed for every running task
// at every event, O(cores) scans for core picking, minimum-finding, and
// progress accounting. It shares Config, Task, and Job with the optimized
// Machine (a Task must only ever be submitted to one core implementation).
type Reference struct {
	cfg   Config
	rng   *rand.Rand
	now   float64
	ready []*Task
	// cores[i] holds the running task or nil. Core i lives on socket
	// i/(PhysCoresPerSocket*SMT); its SMT sibling is i^1 when SMT=2.
	cores   []*Task
	running int
	jobs    int

	// BusyNs accumulates core-busy virtual time for utilisation accounting.
	BusyNs float64
}

// NewReference builds a seed-core machine from cfg.
func NewReference(cfg Config) *Reference {
	if cfg.SMT != 1 && cfg.SMT != 2 {
		panic(fmt.Sprintf("sim: SMT=%d unsupported (1 or 2)", cfg.SMT))
	}
	if cfg.SpeedFactor <= 0 {
		cfg.SpeedFactor = 1
	}
	validateSocketSpeed(cfg)
	return &Reference{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		cores: make([]*Task, cfg.LogicalCores()),
	}
}

// Config returns the machine configuration.
func (m *Reference) Config() Config { return m.cfg }

// Now returns the current virtual time in nanoseconds.
func (m *Reference) Now() float64 { return m.now }

// Busy returns the accumulated core-busy virtual time.
func (m *Reference) Busy() float64 { return m.BusyNs }

// NewJob allocates a job handle. maxCores of 0 means unlimited.
func (m *Reference) NewJob(maxCores int) *Job {
	m.jobs++
	return &Job{ID: m.jobs, MaxCores: maxCores}
}

// Submit queues a task; it starts when a core (and its job's core budget)
// becomes available. Submission order is preserved FIFO, which makes the
// whole simulation deterministic.
func (m *Reference) Submit(t *Task) {
	if t.Job == nil {
		panic("sim: task without job")
	}
	if t.BaseNs <= 0 {
		t.BaseNs = 1 // zero-length tasks still occupy a scheduling slot
	}
	if t.MemFrac < 0 {
		t.MemFrac = 0
	}
	if t.MemFrac > 1 {
		t.MemFrac = 1
	}
	t.remaining = t.BaseNs * m.noiseFactor()
	m.ready = append(m.ready, t)
}

func (m *Reference) noiseFactor() float64 {
	n := m.cfg.Noise
	if !n.Enabled {
		return 1
	}
	f := 1 + n.Jitter*(2*m.rng.Float64()-1)
	if m.rng.Float64() < n.SpikeProb {
		f *= n.SpikeMin + m.rng.Float64()*(n.SpikeMax-n.SpikeMin)
	}
	return f
}

func (m *Reference) socketOf(core int) int {
	return core / (m.cfg.PhysCoresPerSocket * m.cfg.SMT)
}

func (m *Reference) siblingOf(core int) int {
	if m.cfg.SMT == 1 {
		return -1
	}
	return core ^ 1
}

// pickCore chooses an idle core for a task, preferring (1) an idle core with
// an idle SMT sibling on the task's home socket, (2) such a core anywhere,
// (3) any idle core on the home socket, (4) any idle core. Returns -1 when
// the machine is saturated.
func (m *Reference) pickCore(t *Task) int {
	best := -1
	bestScore := -1
	for i, occ := range m.cores {
		if occ != nil {
			continue
		}
		score := 0
		if sib := m.siblingOf(i); sib < 0 || m.cores[sib] == nil {
			score += 2
		}
		if m.socketOf(i) == t.HomeSocket%m.cfg.Sockets {
			score++
		}
		if score > bestScore {
			bestScore = score
			best = i
		}
	}
	return best
}

// dispatch moves ready tasks onto idle cores, respecting job core budgets.
func (m *Reference) dispatch() {
	kept := m.ready[:0]
	for _, t := range m.ready {
		if t.Job.MaxCores > 0 && t.Job.running >= t.Job.MaxCores {
			kept = append(kept, t)
			continue
		}
		core := m.pickCore(t)
		if core < 0 {
			kept = append(kept, t)
			continue
		}
		t.core = core
		m.cores[core] = t
		m.running++
		t.Job.running++
		t.started(m.now, core)
	}
	m.ready = kept
}

// recomputeRates refreshes every running task's progress rate from the
// current SMT occupancy and per-socket bandwidth saturation.
func (m *Reference) recomputeRates() {
	// Per-socket bandwidth demand of the memory-bound parts.
	demand := make([]float64, m.cfg.Sockets)
	for core, t := range m.cores {
		if t == nil {
			continue
		}
		bw := 0.0
		if t.BaseNs > 0 {
			bw = t.Bytes / t.BaseNs * t.MemFrac
		}
		demand[m.socketOf(core)] += bw
	}
	for core, t := range m.cores {
		if t == nil {
			continue
		}
		rate := m.cfg.SpeedFactor
		if sib := m.siblingOf(core); sib >= 0 && m.cores[sib] != nil {
			rate *= m.cfg.SMTFactor
		}
		sock := m.socketOf(core)
		if m.cfg.SocketSpeed != nil {
			rate *= m.cfg.SocketSpeed[sock] // configured asymmetric clocks
		}
		bwFactor := 1.0
		if demand[sock] > m.cfg.BWPerSocket && demand[sock] > 0 {
			bwFactor = m.cfg.BWPerSocket / demand[sock]
		}
		numa := 1.0
		if m.cfg.Sockets > 1 && sock != t.HomeSocket%m.cfg.Sockets && m.cfg.NUMAFactor > 1 {
			numa = 1 / m.cfg.NUMAFactor
		}
		memRate := bwFactor * numa
		t.rate = rate * ((1 - t.MemFrac) + t.MemFrac*memRate)
		if t.rate <= 0 {
			t.rate = 1e-9
		}
	}
}

// step advances the simulation by one event. It reports false when nothing
// is running and nothing could be dispatched.
func (m *Reference) step() bool {
	m.dispatch()
	if m.running == 0 {
		return false
	}
	m.recomputeRates()
	// Find the earliest completion.
	dt := math.Inf(1)
	for _, t := range m.cores {
		if t == nil {
			continue
		}
		if d := t.remaining / t.rate; d < dt {
			dt = d
		}
	}
	m.now += dt
	// Progress everyone; complete all tasks that finish at this instant, in
	// core order for determinism.
	for core, t := range m.cores {
		if t == nil {
			continue
		}
		t.remaining -= dt * t.rate
		if t.remaining <= 1e-9 {
			m.cores[core] = nil
			m.running--
			t.Job.running--
			m.BusyNs += t.BaseNs / m.cfg.SpeedFactor // busy time at nominal rate
			t.completed(m.now, core)
		}
	}
	return true
}

// Run processes events until the machine drains: no running tasks and no
// dispatchable ready tasks. Completion callbacks may submit further tasks.
func (m *Reference) Run() {
	for m.step() {
	}
	if len(m.ready) > 0 {
		panic(fmt.Sprintf("sim: %d tasks remain undispatchable (job core budgets deadlocked?)", len(m.ready)))
	}
}

// RunUntil processes events until done() reports true or the machine
// drains. Like Run, it surfaces a core-budget deadlock (drained with
// undispatchable ready tasks, done still false) instead of returning
// silently.
func (m *Reference) RunUntil(done func() bool) {
	for !done() {
		if !m.step() {
			if len(m.ready) > 0 {
				panic(fmt.Sprintf("sim: %d tasks remain undispatchable (job core budgets deadlocked?)", len(m.ready)))
			}
			return
		}
	}
}

// L3SharePerSocket exposes the socket L3 size to the cost model.
func (m *Reference) L3SharePerSocket() int64 { return m.cfg.L3PerSocket }
