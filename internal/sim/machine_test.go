package sim

import (
	"math"
	"testing"
)

func tinyConfig() Config {
	return Config{
		Name:               "test",
		Sockets:            2,
		PhysCoresPerSocket: 2,
		SMT:                2,
		SpeedFactor:        1,
		L3PerSocket:        1 << 20,
		BWPerSocket:        1e12, // effectively unlimited unless a test lowers it
		SMTFactor:          0.5,
		NUMAFactor:         1,
	}
}

func TestConfigCoreCounts(t *testing.T) {
	c := tinyConfig()
	if c.LogicalCores() != 8 || c.PhysicalCores() != 4 {
		t.Fatalf("cores = %d/%d", c.LogicalCores(), c.PhysicalCores())
	}
	if TwoSocket().LogicalCores() != 32 || TwoSocket().PhysicalCores() != 16 {
		t.Fatal("TwoSocket core counts wrong")
	}
	if FourSocket().LogicalCores() != 96 {
		t.Fatal("FourSocket core counts wrong")
	}
}

func submitN(m *Machine, job *Job, n int, ns float64, done *int) {
	for i := 0; i < n; i++ {
		m.Submit(&Task{
			Label:  "t",
			Job:    job,
			BaseNs: ns,
			OnComplete: func(now float64, core int) {
				*done++
			},
		})
	}
}

func TestSerialTasksRunSequentiallyOnOneJobCore(t *testing.T) {
	m := NewMachine(tinyConfig())
	job := m.NewJob(1)
	done := 0
	submitN(m, job, 4, 100, &done)
	m.Run()
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	if math.Abs(m.Now()-400) > 1e-6 {
		t.Fatalf("Now = %f, want 400 (serial due to MaxCores=1)", m.Now())
	}
}

func TestParallelTasksOverlap(t *testing.T) {
	m := NewMachine(tinyConfig())
	job := m.NewJob(0)
	done := 0
	submitN(m, job, 4, 100, &done) // 4 physical cores, all siblings idle
	m.Run()
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	if math.Abs(m.Now()-100) > 1e-6 {
		t.Fatalf("Now = %f, want 100 (4 tasks on 4 physical cores)", m.Now())
	}
}

func TestSMTSlowdown(t *testing.T) {
	// 8 equal tasks on 4 physical cores (8 threads): 4 run at full rate
	// until siblings arrive; with all 8 running every thread runs at
	// SMTFactor=0.5, so elapsed is 200 ns, not 100.
	m := NewMachine(tinyConfig())
	job := m.NewJob(0)
	done := 0
	submitN(m, job, 8, 100, &done)
	m.Run()
	if done != 8 {
		t.Fatalf("done = %d", done)
	}
	if math.Abs(m.Now()-200) > 1e-6 {
		t.Fatalf("Now = %f, want 200 (SMT halves per-thread rate)", m.Now())
	}
}

func TestBandwidthContentionSlowsMemoryBoundTasks(t *testing.T) {
	cfg := tinyConfig()
	cfg.BWPerSocket = 1.0 // bytes/ns
	m := NewMachine(cfg)
	job := m.NewJob(0)
	// Two fully memory-bound tasks on socket 0, each demanding 1 B/ns:
	// combined demand 2 > 1 available, so both run at half rate.
	for i := 0; i < 2; i++ {
		m.Submit(&Task{Job: job, BaseNs: 100, MemFrac: 1, Bytes: 100, HomeSocket: 0})
	}
	m.Run()
	if math.Abs(m.Now()-200) > 1e-6 {
		t.Fatalf("Now = %f, want 200 (bandwidth-saturated)", m.Now())
	}
	// Compute-bound tasks are unaffected by the same pressure.
	m2 := NewMachine(cfg)
	job2 := m2.NewJob(0)
	for i := 0; i < 2; i++ {
		m2.Submit(&Task{Job: job2, BaseNs: 100, MemFrac: 0, Bytes: 100, HomeSocket: 0})
	}
	m2.Run()
	if math.Abs(m2.Now()-100) > 1e-6 {
		t.Fatalf("compute-bound Now = %f, want 100", m2.Now())
	}
}

func TestNUMARemotePenalty(t *testing.T) {
	cfg := tinyConfig()
	cfg.NUMAFactor = 2.0
	m := NewMachine(cfg)
	job := m.NewJob(0)
	// 5 memory-bound tasks homed on socket 0, but socket 0 has only 4
	// threads; one lands remote and runs at half memory rate.
	for i := 0; i < 5; i++ {
		m.Submit(&Task{Job: job, BaseNs: 100, MemFrac: 1, Bytes: 0.0001, HomeSocket: 0})
	}
	m.Run()
	// Socket-0 threads: two pairs at SMT 0.5 → 200ns each; the remote task
	// gets a full physical core but memory rate 0.5 → also 200ns.
	if math.Abs(m.Now()-200) > 1e-6 {
		t.Fatalf("Now = %f, want 200", m.Now())
	}
}

func TestJobMaxCoresLimitsConcurrency(t *testing.T) {
	m := NewMachine(tinyConfig())
	limited := m.NewJob(2)
	done := 0
	submitN(m, limited, 6, 100, &done)
	m.Run()
	if done != 6 {
		t.Fatalf("done = %d", done)
	}
	if math.Abs(m.Now()-300) > 1e-6 {
		t.Fatalf("Now = %f, want 300 (6 tasks, 2 at a time)", m.Now())
	}
}

func TestOnCompleteCanSubmitDependents(t *testing.T) {
	m := NewMachine(tinyConfig())
	job := m.NewJob(0)
	var order []string
	m.Submit(&Task{
		Job: job, BaseNs: 50, Label: "a",
		OnComplete: func(now float64, core int) {
			order = append(order, "a")
			m.Submit(&Task{Job: job, BaseNs: 50, Label: "b",
				OnComplete: func(now float64, core int) { order = append(order, "b") }})
		},
	})
	m.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v", order)
	}
	if math.Abs(m.Now()-100) > 1e-6 {
		t.Fatalf("Now = %f, want 100 (dependency chain)", m.Now())
	}
}

func TestDeterminismForFixedSeed(t *testing.T) {
	run := func() float64 {
		cfg := tinyConfig()
		cfg.Noise = DefaultNoise()
		cfg.Seed = 42
		m := NewMachine(cfg)
		job := m.NewJob(0)
		done := 0
		submitN(m, job, 20, 100, &done)
		m.Run()
		return m.Now()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic: %f vs %f", a, b)
	}
}

func TestNoiseChangesTimings(t *testing.T) {
	base := func(seed int64, noisy bool) float64 {
		cfg := tinyConfig()
		cfg.Seed = seed
		if noisy {
			cfg.Noise = DefaultNoise()
		}
		m := NewMachine(cfg)
		job := m.NewJob(0)
		done := 0
		submitN(m, job, 16, 100, &done)
		m.Run()
		return m.Now()
	}
	clean := base(1, false)
	noisy := base(1, true)
	if clean == noisy {
		t.Fatal("noise had no effect on timings")
	}
}

func TestBusyNsAccounting(t *testing.T) {
	m := NewMachine(tinyConfig())
	job := m.NewJob(0)
	done := 0
	submitN(m, job, 3, 100, &done)
	m.Run()
	if math.Abs(m.BusyNs-300) > 1e-6 {
		t.Fatalf("BusyNs = %f, want 300", m.BusyNs)
	}
}

// Quiescent holds exactly while a job would run alone on an undisturbed
// machine, and Replay advances such a machine as the run it stands for did.
func TestQuiescentAndReplay(t *testing.T) {
	m := NewMachine(tinyConfig())
	if !m.Quiescent() {
		t.Fatal("a fresh machine is not quiescent")
	}
	done := 0
	submitN(m, m.NewJob(0), 3, 100, &done)
	if m.Quiescent() {
		t.Fatal("queued tasks left the machine quiescent")
	}
	m.Run()
	now, busy := m.Now(), m.BusyNs
	if !m.Quiescent() {
		t.Fatal("a drained machine is not quiescent")
	}
	m.Replay(now, busy)
	if m.Now() != 2*now || m.BusyNs != 2*busy || m.NewJob(0).ID != 3 {
		t.Fatalf("replay advanced to %v / %v busy; the run took %v / %v", m.Now(), m.BusyNs, now, busy)
	}

	m.InjectFault(FaultEvent{AtNs: m.Now() + 10, Kind: FaultSocketThrottle, Factor: 0.5, DurationNs: 100})
	if m.Quiescent() {
		t.Fatal("an armed fault left the machine quiescent")
	}
	submitN(m, m.NewJob(0), 1, 500, &done)
	m.Run() // throttled mid-task, restored before it ends
	if !m.Quiescent() {
		t.Fatal("a restored throttle still counts as a fault")
	}
	for _, ev := range []FaultEvent{
		{Kind: FaultSocketThrottle, Factor: 0.5},
		{Kind: FaultCoreLoss, Count: 1},
		{Kind: FaultInterference, Factor: 2, DurationNs: 1e9},
	} {
		m := NewMachine(tinyConfig())
		m.InjectFault(ev)
		m.Run() // applies it: nothing is armed any more
		if m.PendingFaults() != 0 || m.Quiescent() {
			t.Fatalf("%s applied (%d pending): the machine still reports quiescent", ev.Kind, m.PendingFaults())
		}
	}

	noisy := tinyConfig()
	noisy.Noise = DefaultNoise()
	if NewMachine(noisy).Quiescent() {
		t.Fatal("a noisy machine is quiescent")
	}
}

func TestSubmitWithoutJobPanics(t *testing.T) {
	m := NewMachine(tinyConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("Submit without job did not panic")
		}
	}()
	m.Submit(&Task{BaseNs: 1})
}

func TestHomeSocketPreference(t *testing.T) {
	m := NewMachine(tinyConfig())
	job := m.NewJob(0)
	var cores []int
	for i := 0; i < 2; i++ {
		home := i % 2
		m.Submit(&Task{Job: job, BaseNs: 100, HomeSocket: home,
			OnStart: func(now float64, core int) { cores = append(cores, core) }})
	}
	m.Run()
	if len(cores) != 2 {
		t.Fatalf("cores = %v", cores)
	}
	if m.socketOf(cores[0]) != 0 || m.socketOf(cores[1]) != 1 {
		t.Fatalf("tasks not placed on home sockets: cores %v", cores)
	}
}
