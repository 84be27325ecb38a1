// Package sim implements the discrete-event multi-core machine on which all
// query plans execute. It is the substitute for the paper's physical Xeon
// servers (docs/ARCHITECTURE.md §scale): cores grouped into sockets with SMT
// pairs, a processor-sharing model of the shared memory bandwidth per socket, NUMA
// remote-access penalties, and a seeded OS-noise model. Operators compute
// real results on the host; the simulator only decides how long each
// operator *takes* and when it runs, in virtual nanoseconds.
//
// The fluid model: every running task has `remaining` nanoseconds of
// unit-rate work and progresses at a rate determined by its core's SMT
// occupancy and the socket's bandwidth saturation. Rates are recomputed at
// every event (task start or completion), and the clock jumps to the next
// completion — a classic processor-sharing event simulation, deterministic
// for a fixed seed and submission order.
//
// Event-core performance. The seed implementation (preserved verbatim as
// Reference in reference_test.go) paid O(cores) several times per event: a fresh
// per-socket demand array and a full two-pass rate recomputation, an
// O(cores) idle-core scan per ready task, and full-array scans for the
// minimum completion and progress accounting. Machine keeps the same model
// but restructures the hot paths:
//
//   - pickCore uses bitset free-core indexes (idle cores, and idle cores
//     with an idle SMT sibling, per socket) — a placement is a few word
//     operations instead of an O(cores) scoring scan.
//   - Per-socket bandwidth demand is recomputed only for sockets whose
//     occupancy changed since the last event ("dirty" sockets), by scanning
//     just that socket's core range in core order.
//   - Task rates are recomputed only for tasks whose inputs changed: newly
//     placed tasks, tasks whose SMT sibling occupancy flipped, and tasks on
//     a socket whose demand value changed.
//   - The minimum-completion scan and the progress decrement iterate a
//     dense running-task list kept in core order, not the full core array.
//
// Equivalence is load-bearing, not aspirational: every floating-point
// operation above happens on the same values in the same order as the seed
// core (per-socket demand sums are re-summed in core order when dirty, the
// rate formula is evaluated on identical inputs, the global decrement loop
// is preserved), so virtual timelines are bit-identical to Reference. The
// golden test asserts exactly that. Note this is also why the event core
// deliberately does NOT replace the per-event progress decrement with
// lazily projected completion times in a priority queue: the seed model
// rounds every running task's remaining work at every event, so any scheme
// that skips those per-event roundings produces (slightly) different
// timelines and breaks reproducibility of every recorded experiment.
//
// Ownership invariants. A Machine is single-threaded: its event queue,
// clock, and core state may only be touched by one goroutine at a time
// (the server serializes through per-shard engine-ownership locks).
// Submitted Tasks are owned by the machine from Submit until their
// completion hook fires — callers must not mutate a task in flight; the
// exec layer embeds tasks in a per-plan slab and reuses an entry only after
// its completion delivered results.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
)

// Config describes a simulated machine. Byte capacities are scaled by the
// same factor as the datasets (1/100 of the paper's hardware) so that
// cache-residency crossovers land where the paper's do.
type Config struct {
	Name               string
	Sockets            int
	PhysCoresPerSocket int
	SMT                int     // hardware threads per physical core
	SpeedFactor        float64 // relative per-core speed (1.0 = 2.0 GHz class)
	L3PerSocket        int64   // bytes, scaled
	BWPerSocket        float64 // bytes per ns of memory bandwidth, scaled
	SMTFactor          float64 // per-thread rate when the SMT sibling is busy
	NUMAFactor         float64 // memory slowdown for remote-socket access
	// SocketSpeed holds per-socket core-speed multipliers for asymmetric
	// machines (heterogeneous clocks, one power-capped package). nil means
	// all sockets run at SpeedFactor — the symmetric presets keep nil so
	// their timelines stay bit-identical to earlier releases. When set, the
	// length must equal Sockets and every entry must be positive.
	SocketSpeed []float64
	Noise       NoiseConfig
	Seed        int64
}

// validateSocketSpeed panics when an asymmetric speed vector is malformed;
// both simulator cores call it so they can never disagree on the config.
func validateSocketSpeed(cfg Config) {
	if cfg.SocketSpeed == nil {
		return
	}
	if len(cfg.SocketSpeed) != cfg.Sockets {
		panic(fmt.Sprintf("sim: SocketSpeed has %d entries for %d sockets", len(cfg.SocketSpeed), cfg.Sockets))
	}
	for i, s := range cfg.SocketSpeed {
		if s <= 0 {
			panic(fmt.Sprintf("sim: SocketSpeed[%d]=%g must be positive", i, s))
		}
	}
}

// LogicalCores returns the number of schedulable hardware threads.
func (c Config) LogicalCores() int { return c.Sockets * c.PhysCoresPerSocket * c.SMT }

// PhysicalCores returns the number of physical cores.
func (c Config) PhysicalCores() int { return c.Sockets * c.PhysCoresPerSocket }

// TwoSocket mirrors the paper's 2-socket Intel Xeon E5-2650 machine
// (Table 1): 2×8 physical cores, 32 hyper-threads, 20 MB shared L3 per
// socket and 256 GB of RAM — L3 and bandwidth scaled 1/100 like the data.
func TwoSocket() Config {
	return Config{
		Name:               "2-socket E5-2650-class (32 threads)",
		Sockets:            2,
		PhysCoresPerSocket: 8,
		SMT:                2,
		SpeedFactor:        1.0,
		L3PerSocket:        200 << 10, // 20 MB scaled 1/100
		BWPerSocket:        40,        // ~4 GB/s per socket at 1/100 scale
		SMTFactor:          0.55,
		NUMAFactor:         1.35,
	}
}

// FourSocket mirrors the paper's 4-socket Intel Xeon E5-4657Lv2 machine
// (Table 1): 4×12 physical cores, 96 hyper-threads, 30 MB L3 per socket,
// 2.4 GHz (1.2× the two-socket machine's clock).
func FourSocket() Config {
	return Config{
		Name:               "4-socket E5-4657Lv2-class (96 threads)",
		Sockets:            4,
		PhysCoresPerSocket: 12,
		SMT:                2,
		SpeedFactor:        1.2,
		L3PerSocket:        300 << 10, // 30 MB scaled 1/100
		BWPerSocket:        40,
		SMTFactor:          0.55,
		NUMAFactor:         1.35,
	}
}

// TwoSocketAsym is the two-socket machine with socket 1 power-capped to 70%
// of socket 0's clock — the asymmetric-NUMA regime where uniform mitosis
// over-partitions the slow package and adaptive parallelization should learn
// a lopsided placement.
func TwoSocketAsym() Config {
	c := TwoSocket()
	c.Name = "2-socket asymmetric (socket 1 at 0.7×)"
	c.SocketSpeed = []float64{1.0, 0.7}
	return c
}

// FourSocketAsym is the four-socket machine with a stepped clock gradient
// across packages (1.0×, 0.9×, 0.75×, 0.6×), modelling a thermally
// imbalanced chassis.
func FourSocketAsym() Config {
	c := FourSocket()
	c.Name = "4-socket asymmetric (stepped 1.0/0.9/0.75/0.6×)"
	c.SocketSpeed = []float64{1.0, 0.9, 0.75, 0.6}
	return c
}

// NoiseConfig models run-time environment disturbance (§3.3.3): multiplicative
// jitter on every task and rare large spikes that mimic OS interference.
type NoiseConfig struct {
	Enabled   bool
	Jitter    float64 // uniform ±Jitter fraction on every task
	SpikeProb float64 // probability a task is hit by an interference spike
	SpikeMin  float64 // spike multiplier range
	SpikeMax  float64
}

// DefaultNoise is calibrated so that convergence traces show the occasional
// above-serial peak of Figure 11 without drowning the signal.
func DefaultNoise() NoiseConfig {
	return NoiseConfig{Enabled: true, Jitter: 0.03, SpikeProb: 0.004, SpikeMin: 4, SpikeMax: 10}
}

// TaskHooks is the allocation-free alternative to the OnStart/OnComplete
// closures: a submitter embeds Task in a per-operator struct implementing
// TaskHooks, so one allocation carries the task and both callbacks. Closure
// fields win when both are set.
type TaskHooks interface {
	TaskStarted(now float64, core int)
	TaskCompleted(now float64, core int)
}

// Task is one schedulable unit: an operator execution.
type Task struct {
	Label      string
	Job        *Job
	BaseNs     float64 // duration at unit rate on an uncontended core
	MemFrac    float64 // fraction of BaseNs bound on memory bandwidth
	Bytes      float64 // bytes moved; bandwidth demand = Bytes/BaseNs
	HomeSocket int     // socket owning the task's data partition
	OnStart    func(now float64, core int)
	OnComplete func(now float64, core int)
	Hooks      TaskHooks

	remaining float64
	rate      float64
	core      int
	rateDirty bool // optimized core only: rate inputs changed since last refresh
}

func (t *Task) started(now float64, core int) {
	if t.OnStart != nil {
		t.OnStart(now, core)
	} else if t.Hooks != nil {
		t.Hooks.TaskStarted(now, core)
	}
}

func (t *Task) completed(now float64, core int) {
	if t.OnComplete != nil {
		t.OnComplete(now, core)
	} else if t.Hooks != nil {
		t.Hooks.TaskCompleted(now, core)
	}
}

// Job groups tasks for admission control: at most MaxCores of a job's tasks
// run simultaneously (0 = unlimited). The Vectorwise comparator uses this to
// model its resource-allocation scheme (§4.2.4).
type Job struct {
	ID       int
	MaxCores int
	running  int
}

// coreSet is a bitset over core indices; with at most a few hundred logical
// cores it is one or two machine words per lookup.
type coreSet []uint64

func newCoreSet(n int) coreSet { return make(coreSet, (n+63)/64) }

func (s coreSet) set(i int)      { s[i>>6] |= 1 << (uint(i) & 63) }
func (s coreSet) clear(i int)    { s[i>>6] &^= 1 << (uint(i) & 63) }
func (s coreSet) has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// firstIn returns the lowest index present in both s and mask, or -1.
func (s coreSet) firstIn(mask coreSet) int {
	for w, b := range s {
		if b &= mask[w]; b != 0 {
			return w<<6 + bits.TrailingZeros64(b)
		}
	}
	return -1
}

// first returns the lowest index present in s, or -1.
func (s coreSet) first() int {
	for w, b := range s {
		if b != 0 {
			return w<<6 + bits.TrailingZeros64(b)
		}
	}
	return -1
}

// Machine is the simulated multi-core machine (optimized event core; see the
// package comment for the equivalence contract with Reference).
type Machine struct {
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

	tps      int     // hardware threads per socket
	run      []*Task // running tasks in ascending core order
	idle     coreSet // idle cores
	idleSib  coreSet // idle cores whose SMT sibling is also idle (SMT=2 only)
	homeMask []coreSet
	noHome   coreSet   // empty mask for out-of-range home sockets
	demand   []float64 // per-socket bandwidth demand, summed in core order
	dirty    []bool    // socket occupancy changed since last rate refresh

	// Fault-injection state (fault.go). All of it is nil/zero until a fault
	// is scheduled, and every hot-path touch is gated on that, so a machine
	// with no FaultPlan performs exactly the seed core's floating-point
	// operations and stays bit-identical to Reference.
	faults      []pendingFault // scheduled events, ascending time
	lost        coreSet        // permanently removed cores (nil until first loss)
	lostCount   int
	sockSpeed   []float64 // per-socket throttle multiplier (nil = all 1)
	burstFactor float64   // interference inflation on Submit while the window is open
	burstUntil  float64
	fstats      FaultStats
}

// NewMachine builds a machine from cfg.
func NewMachine(cfg Config) *Machine {
	if cfg.SMT != 1 && cfg.SMT != 2 {
		panic(fmt.Sprintf("sim: SMT=%d unsupported (1 or 2)", cfg.SMT))
	}
	if cfg.SpeedFactor <= 0 {
		cfg.SpeedFactor = 1
	}
	validateSocketSpeed(cfg)
	n := cfg.LogicalCores()
	m := &Machine{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		cores:    make([]*Task, n),
		tps:      cfg.PhysCoresPerSocket * cfg.SMT,
		run:      make([]*Task, 0, n),
		idle:     newCoreSet(n),
		idleSib:  newCoreSet(n),
		homeMask: make([]coreSet, cfg.Sockets),
		noHome:   newCoreSet(n),
		demand:   make([]float64, cfg.Sockets),
		dirty:    make([]bool, cfg.Sockets),
	}
	for i := 0; i < n; i++ {
		m.idle.set(i)
		m.idleSib.set(i)
	}
	for s := 0; s < cfg.Sockets; s++ {
		m.homeMask[s] = newCoreSet(n)
		for c := s * m.tps; c < (s+1)*m.tps; c++ {
			m.homeMask[s].set(c)
		}
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Now returns the current virtual time in nanoseconds.
func (m *Machine) Now() float64 { return m.now }

// Busy returns the accumulated core-busy virtual time.
func (m *Machine) Busy() float64 { return m.BusyNs }

// NewJob allocates a job handle. maxCores of 0 means unlimited.
func (m *Machine) NewJob(maxCores int) *Job {
	m.jobs++
	return &Job{ID: m.jobs, MaxCores: maxCores}
}

// Quiescent reports whether a job submitted now would run alone on an
// undisturbed machine: nothing queued or running, no fault armed or applied
// (a lost core, a throttled socket, an open interference window) and noise
// off. On such a machine a job's timeline, relative to its submission, is a
// function of its tasks alone.
func (m *Machine) Quiescent() bool {
	if len(m.ready) > 0 || m.running > 0 || m.faults != nil || m.lostCount > 0 || m.cfg.Noise.Enabled {
		return false
	}
	if m.burstFactor != 0 && m.now < m.burstUntil {
		return false
	}
	for _, s := range m.sockSpeed {
		if s != 1 {
			return false
		}
	}
	return true
}

// Replay advances a quiescent machine past one job whose timeline is already
// known instead of simulating it: the clock by its makespan, the busy time by
// busyNs and the job count by one, as if it had run alone.
func (m *Machine) Replay(makespanNs, busyNs float64) {
	m.jobs++
	m.now += makespanNs
	m.BusyNs += busyNs
}

// Submit queues a task; it starts when a core (and its job's core budget)
// becomes available. Submission order is preserved FIFO, which makes the
// whole simulation deterministic.
func (m *Machine) Submit(t *Task) {
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
	if m.burstFactor != 0 && m.now < m.burstUntil {
		t.remaining *= m.burstFactor // arriving inside an interference burst
	}
	m.ready = append(m.ready, t)
}

func (m *Machine) noiseFactor() float64 {
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

func (m *Machine) socketOf(core int) int { return core / m.tps }

// pickCore chooses an idle core for a task, preferring (1) an idle core with
// an idle SMT sibling on the task's home socket, (2) such a core anywhere,
// (3) any idle core on the home socket, (4) any idle core. Returns -1 when
// the machine is saturated. Ties break toward the lowest core index, exactly
// like the seed's ascending first-best scan.
func (m *Machine) pickCore(t *Task) int {
	sib := m.idleSib
	if m.cfg.SMT == 1 {
		sib = m.idle // every idle core trivially has an "idle sibling"
	}
	home := m.noHome
	if hs := t.HomeSocket % m.cfg.Sockets; hs >= 0 {
		home = m.homeMask[hs]
	}
	if c := sib.firstIn(home); c >= 0 {
		return c
	}
	if c := sib.first(); c >= 0 {
		return c
	}
	if c := m.idle.firstIn(home); c >= 0 {
		return c
	}
	return m.idle.first()
}

// insertRun adds t to the running list, keeping ascending core order so the
// progress/completion pass visits tasks exactly as the seed's core scan did.
func (m *Machine) insertRun(t *Task) {
	i := sort.Search(len(m.run), func(i int) bool { return m.run[i].core > t.core })
	m.run = append(m.run, nil)
	copy(m.run[i+1:], m.run[i:])
	m.run[i] = t
}

// place puts t on core, updating the free-core indexes and marking the
// affected socket (and any SMT sibling occupant) for rate refresh.
func (m *Machine) place(t *Task, core int) {
	t.core = core
	t.rateDirty = true
	m.cores[core] = t
	m.running++
	t.Job.running++
	m.idle.clear(core)
	m.dirty[core/m.tps] = true
	if m.cfg.SMT == 2 {
		sib := core ^ 1
		m.idleSib.clear(core)
		m.idleSib.clear(sib)
		if st := m.cores[sib]; st != nil {
			st.rateDirty = true // sibling loses its solo SMT rate
		}
	}
	m.insertRun(t)
	t.started(m.now, core)
}

// dispatch moves ready tasks onto idle cores, respecting job core budgets.
func (m *Machine) dispatch() {
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
		m.place(t, core)
	}
	m.ready = kept
}

// refreshRates re-derives per-socket bandwidth demand for sockets whose
// occupancy changed, then recomputes rates for exactly the tasks whose
// inputs changed. Demand is re-summed over the socket's core range in
// ascending core order — the same floating-point additions in the same
// order as the seed's full recomputation — and a socket whose re-summed
// demand is unchanged triggers no rate work at all, which is sound because
// the rate formula is a pure function of (sibling occupancy, socket demand,
// task constants).
func (m *Machine) refreshRates() {
	for sock := range m.dirty {
		if !m.dirty[sock] {
			continue
		}
		m.dirty[sock] = false
		d := 0.0
		lo, hi := sock*m.tps, (sock+1)*m.tps
		for core := lo; core < hi; core++ {
			t := m.cores[core]
			if t == nil {
				continue
			}
			bw := 0.0
			if t.BaseNs > 0 {
				bw = t.Bytes / t.BaseNs * t.MemFrac
			}
			d += bw
		}
		if d != m.demand[sock] {
			m.demand[sock] = d
			for core := lo; core < hi; core++ {
				if t := m.cores[core]; t != nil {
					t.rateDirty = true
				}
			}
		}
	}
	for _, t := range m.run {
		if !t.rateDirty {
			continue
		}
		t.rateDirty = false
		core := t.core
		rate := m.cfg.SpeedFactor
		if m.cfg.SMT == 2 && m.cores[core^1] != nil {
			rate *= m.cfg.SMTFactor
		}
		sock := core / m.tps
		if m.cfg.SocketSpeed != nil {
			rate *= m.cfg.SocketSpeed[sock] // configured asymmetric clocks
		}
		if m.sockSpeed != nil {
			rate *= m.sockSpeed[sock] // fault-injection throttle (fault.go)
		}
		bwFactor := 1.0
		if m.demand[sock] > m.cfg.BWPerSocket && m.demand[sock] > 0 {
			bwFactor = m.cfg.BWPerSocket / m.demand[sock]
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
func (m *Machine) step() bool {
	if m.faults != nil {
		m.applyFaultsDue() // before dispatch: a just-lost core is unplaceable
	}
	m.dispatch()
	if m.running == 0 {
		return false
	}
	m.refreshRates()
	// Find the earliest completion among running tasks.
	dt := math.Inf(1)
	for _, t := range m.run {
		if d := t.remaining / t.rate; d < dt {
			dt = d
		}
	}
	if m.faults != nil {
		// Never step past a scheduled fault: cap the advance at the fault
		// instant (running tasks take partial progress, none complete) so the
		// fault applies at exactly its scheduled virtual time next step.
		if rem := m.faults[0].at - m.now; rem < dt {
			dt = rem
		}
	}
	m.now += dt
	// Progress everyone; complete all tasks that finish at this instant, in
	// core order for determinism. Completion callbacks may Submit new work
	// (touching only the ready queue), never the running list.
	kept := m.run[:0]
	for _, t := range m.run {
		t.remaining -= dt * t.rate
		if t.remaining > 1e-9 {
			kept = append(kept, t)
			continue
		}
		core := t.core
		m.cores[core] = nil
		m.running--
		t.Job.running--
		m.idle.set(core)
		m.dirty[core/m.tps] = true
		if m.cfg.SMT == 2 {
			sib := core ^ 1
			if st := m.cores[sib]; st == nil {
				m.idleSib.set(core)
				if m.lost == nil || !m.lost.has(sib) {
					m.idleSib.set(sib) // a lost sibling stays unplaceable
				}
			} else {
				st.rateDirty = true // sibling regains its solo SMT rate
			}
		}
		m.BusyNs += t.BaseNs / m.cfg.SpeedFactor // busy time at nominal rate
		t.completed(m.now, core)
	}
	m.run = kept
	return true
}

// reportDeadlock panics when ready tasks remain that no core budget will
// ever admit — the machine drained with work still queued.
func (m *Machine) reportDeadlock() {
	if len(m.ready) > 0 {
		if m.lostCount > 0 {
			panic(fmt.Sprintf("sim: %d tasks remain undispatchable (%d of %d cores lost to faults)", len(m.ready), m.lostCount, len(m.cores)))
		}
		panic(fmt.Sprintf("sim: %d tasks remain undispatchable (job core budgets deadlocked?)", len(m.ready)))
	}
}

// Run processes events until the machine drains: no running tasks and no
// dispatchable ready tasks. Completion callbacks may submit further tasks.
func (m *Machine) Run() {
	for m.step() {
	}
	m.reportDeadlock()
}

// RunUntil processes events until done() reports true or the machine
// drains. It lets a caller wait for one job while unrelated work (e.g. a
// background load generator) keeps the machine busy. If the machine drains
// with undispatchable ready tasks before done() is satisfied, RunUntil
// surfaces the same core-budget-deadlock panic as Run instead of returning
// silently with the waited-for work permanently stuck.
func (m *Machine) RunUntil(done func() bool) {
	for !done() {
		if !m.step() {
			m.reportDeadlock()
			return
		}
	}
}

// L3SharePerSocket exposes the socket L3 size to the cost model.
func (m *Machine) L3SharePerSocket() int64 { return m.cfg.L3PerSocket }
