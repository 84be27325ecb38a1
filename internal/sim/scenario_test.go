// scenario_test.go is the record/replay harness for event-core equivalence: a
// Scenario is a deterministic task-submission program (including tasks
// spawned from completion callbacks, the shape plan executions produce) that
// can be played on any event core, yielding a Timeline of every task's
// observed placement and start/end times. The golden test plays the same
// scenario on Machine and Reference and requires bit-identical timelines;
// the event-core benchmarks (bench_test.go) play a large scenario on both to
// measure the event-core speedup.
package sim

import "math/rand"

// TaskSpec describes one scenario task. Specs form a forest: Spawns are
// submitted, in order, when this task completes — modelling dataflow
// dependency chains.
type TaskSpec struct {
	Label      string
	JobIdx     int // index into the scenario's JobBudgets
	BaseNs     float64
	MemFrac    float64
	Bytes      float64
	HomeSocket int
	Spawns     []TaskSpec
}

// Scenario is a replayable submission program against one machine config.
type Scenario struct {
	Name       string
	JobBudgets []int // MaxCores per job, allocated in order
	Tasks      []TaskSpec
}

// NumTasks counts all tasks including completion-spawned ones.
func (sc *Scenario) NumTasks() int {
	var walk func(specs []TaskSpec) int
	walk = func(specs []TaskSpec) int {
		n := len(specs)
		for i := range specs {
			n += walk(specs[i].Spawns)
		}
		return n
	}
	return walk(sc.Tasks)
}

// TimelineEvent is one task's observed execution.
type TimelineEvent struct {
	Label   string
	Core    int
	StartNs float64
	EndNs   float64
}

// Timeline is the externally observable outcome of playing a scenario:
// every task's placement and timing (in start order), the final virtual
// clock, and the busy-time accounting.
type Timeline struct {
	Events  []TimelineEvent
	FinalNs float64
	BusyNs  float64
}

// Core is the event-core API surface scenarios drive; *Machine (optimized)
// and *Reference (seed) both implement it.
type Core interface {
	Config() Config
	NewJob(maxCores int) *Job
	Submit(*Task)
	Run()
	Now() float64
	Busy() float64
}

// Play submits the scenario to core and drives it to completion.
func (sc *Scenario) Play(core Core) *Timeline {
	jobs := make([]*Job, len(sc.JobBudgets))
	for i, b := range sc.JobBudgets {
		jobs[i] = core.NewJob(b)
	}
	tl := &Timeline{}
	var submit func(spec *TaskSpec)
	submit = func(spec *TaskSpec) {
		t := &Task{
			Label:      spec.Label,
			Job:        jobs[spec.JobIdx],
			BaseNs:     spec.BaseNs,
			MemFrac:    spec.MemFrac,
			Bytes:      spec.Bytes,
			HomeSocket: spec.HomeSocket,
		}
		idx := -1
		t.OnStart = func(now float64, c int) {
			idx = len(tl.Events)
			tl.Events = append(tl.Events, TimelineEvent{Label: spec.Label, Core: c, StartNs: now, EndNs: -1})
		}
		t.OnComplete = func(now float64, c int) {
			tl.Events[idx].EndNs = now
			for i := range spec.Spawns {
				submit(&spec.Spawns[i])
			}
		}
		core.Submit(t)
	}
	for i := range sc.Tasks {
		submit(&sc.Tasks[i])
	}
	core.Run()
	tl.FinalNs = core.Now()
	tl.BusyNs = core.Busy()
	return tl
}

// ScenarioConfig parameterizes GenScenario.
type ScenarioConfig struct {
	Seed      int64
	Jobs      int     // concurrent jobs; 0th is unbudgeted, others may be capped
	Roots     int     // initially submitted tasks
	MaxChain  int     // maximum depth of completion-spawned chains
	MaxFanout int     // maximum spawns per completion
	MemHeavy  float64 // fraction of tasks that are memory-bound
	Budgets   bool    // give some jobs Vectorwise-style core caps
}

// GenScenario deterministically generates a scenario shaped like real plan
// executions on mach: waves of parallel partition work (uniform sibling
// tasks homed on distinct sockets), reduction chains spawned on completion,
// and a mix of compute- and memory-bound operators — enough demand to
// saturate socket bandwidth sometimes, and enough tasks to saturate cores.
func GenScenario(name string, cfg ScenarioConfig, mach Config) *Scenario {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Jobs <= 0 {
		cfg.Jobs = 1
	}
	sc := &Scenario{Name: name}
	for j := 0; j < cfg.Jobs; j++ {
		budget := 0
		if cfg.Budgets && j > 0 {
			// The §4.2.4 admission ladder: later jobs get smaller budgets.
			budget = mach.LogicalCores() / (1 << uint(j%5))
			if budget < 1 {
				budget = 1
			}
		}
		sc.JobBudgets = append(sc.JobBudgets, budget)
	}
	var gen func(depth int, label string) TaskSpec
	gen = func(depth int, label string) TaskSpec {
		base := 100 + rng.Float64()*50000
		memFrac := 0.0
		bytes := 0.0
		if rng.Float64() < cfg.MemHeavy {
			memFrac = 0.3 + rng.Float64()*0.7
			// Demand Bytes/BaseNs in [0.2, 3]× the per-socket bandwidth so
			// both saturated and unsaturated regimes occur.
			bytes = base * mach.BWPerSocket * (0.2 + rng.Float64()*2.8)
		}
		spec := TaskSpec{
			Label:      label,
			JobIdx:     rng.Intn(cfg.Jobs),
			BaseNs:     base,
			MemFrac:    memFrac,
			Bytes:      bytes,
			HomeSocket: rng.Intn(mach.Sockets),
		}
		if depth < cfg.MaxChain && cfg.MaxFanout > 0 {
			for i, n := 0, rng.Intn(cfg.MaxFanout+1); i < n; i++ {
				spec.Spawns = append(spec.Spawns, gen(depth+1, label+"."+string(rune('a'+i))))
			}
		}
		return spec
	}
	for i := 0; i < cfg.Roots; i++ {
		sc.Tasks = append(sc.Tasks, gen(0, "t"+itoa(i)))
	}
	return sc
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
