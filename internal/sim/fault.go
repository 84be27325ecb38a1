package sim

import (
	"fmt"
	"math/rand"
	"sort"
)

// Fault injection: deterministic, virtual-time-scheduled machine degradation
// (ROADMAP item 5, "drift, mutation, and hostile conditions"). A FaultPlan is
// a list of FaultEvents applied to the machine when its clock reaches their
// AtNs — the event core advances the clock *to* each pending fault time (with
// partial progress for every running task) before applying it, so a fault
// lands at exactly its scheduled instant regardless of what is running.
//
// The equivalence contract with the seed core is preserved by construction:
// every fault-handling path is gated on state that is nil/zero until a fault
// is scheduled, so with no FaultPlan the machine performs the same
// floating-point operations on the same values in the same order as before
// and stays bit-identical to Reference (the golden tests pin this).
//
// Fault semantics:
//
//   - FaultCoreLoss removes cores from the machine permanently. A task
//     running on a lost core is migrated: requeued at the ready-queue tail
//     with its remaining work preserved (no re-noising), exactly as an OS
//     would reschedule after a CPU offline. Lost cores never re-enter the
//     free-core indexes; a core whose SMT sibling is lost runs at solo rate
//     (the sibling is gone, not busy). The machine refuses to lose its last
//     available core (counted in FaultStats.Skipped).
//   - FaultSocketThrottle multiplies one socket's core speed by Factor
//     (e.g. 0.5 = thermal/power throttling to half clock) until DurationNs
//     elapses (0 = permanent). Restores are scheduled as synthetic events so
//     rates snap back at exactly AtNs+DurationNs.
//   - FaultInterference models an external load burst: running tasks'
//     remaining work is inflated by Factor once at AtNs, and tasks submitted
//     while the burst window [AtNs, AtNs+DurationNs) is open are inflated on
//     entry. A zero DurationNs hits only the tasks running at AtNs.
type FaultKind int

const (
	// FaultCoreLoss permanently removes cores (Cores explicitly, or Count
	// cores of socket Socket in ascending index order).
	FaultCoreLoss FaultKind = iota
	// FaultSocketThrottle scales socket Socket's core speed by Factor for
	// DurationNs (0 = permanently).
	FaultSocketThrottle
	// FaultInterference inflates running tasks' remaining work by Factor and
	// keeps inflating submissions for DurationNs.
	FaultInterference
)

// String names the fault kind for stats and logs.
func (k FaultKind) String() string {
	switch k {
	case FaultCoreLoss:
		return "core-loss"
	case FaultSocketThrottle:
		return "socket-throttle"
	case FaultInterference:
		return "interference"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// FaultEvent is one scheduled machine fault.
type FaultEvent struct {
	// AtNs is the virtual time the fault lands. Events injected with a past
	// AtNs are clamped to the machine's current clock.
	AtNs float64
	Kind FaultKind
	// Socket targets FaultSocketThrottle, and selects the socket whose cores
	// FaultCoreLoss removes when Cores is empty. Out-of-range values wrap
	// (mod Sockets), matching Task.HomeSocket semantics.
	Socket int
	// Cores lists explicit core indices for FaultCoreLoss (overrides
	// Socket/Count). Out-of-range indices are skipped.
	Cores []int
	// Count is how many cores FaultCoreLoss removes when Cores is empty
	// (0 = 1). Cores are taken from socket Socket in ascending index order,
	// skipping already-lost ones.
	Count int
	// Factor is the throttle speed multiplier (<1 slows; clamped to (0,1])
	// or the interference work inflation (>1 inflates; clamped to >= 1).
	Factor float64
	// DurationNs bounds throttle and interference windows (0 = permanent
	// throttle / instantaneous interference).
	DurationNs float64
}

// FaultPlan is a schedule of machine faults, applied in AtNs order.
type FaultPlan []FaultEvent

// Sorted returns a copy of the plan in ascending AtNs order (stable, so
// same-instant faults keep their declaration order).
func (p FaultPlan) Sorted() FaultPlan {
	out := make(FaultPlan, len(p))
	copy(out, p)
	sort.SliceStable(out, func(i, j int) bool { return out[i].AtNs < out[j].AtNs })
	return out
}

// GenFaultPlan derives a deterministic random fault plan from a seed: n
// events of mixed kinds uniformly spread over [0, horizonNs), never losing
// more than half the machine's cores in total. Two calls with the same
// arguments produce the same plan.
func GenFaultPlan(cfg Config, seed int64, n int, horizonNs float64) FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	plan := make(FaultPlan, 0, n)
	lossBudget := cfg.LogicalCores() / 2
	for i := 0; i < n; i++ {
		ev := FaultEvent{
			AtNs:   rng.Float64() * horizonNs,
			Socket: rng.Intn(max(1, cfg.Sockets)),
		}
		switch rng.Intn(3) {
		case 0:
			if lossBudget > 0 {
				ev.Kind = FaultCoreLoss
				ev.Count = 1 + rng.Intn(max(1, lossBudget/2))
				if ev.Count > lossBudget {
					ev.Count = lossBudget
				}
				lossBudget -= ev.Count
				break
			}
			fallthrough
		case 1:
			ev.Kind = FaultSocketThrottle
			ev.Factor = 0.3 + 0.5*rng.Float64()
			ev.DurationNs = horizonNs * (0.05 + 0.2*rng.Float64())
		default:
			ev.Kind = FaultInterference
			ev.Factor = 1.5 + 3*rng.Float64()
			ev.DurationNs = horizonNs * 0.1 * rng.Float64()
		}
		plan = append(plan, ev)
	}
	return plan.Sorted()
}

// FaultStats counts the machine's applied faults and their effects.
type FaultStats struct {
	// Injected counts fault events applied (restores of a bounded throttle
	// are part of their throttle, not separate events).
	Injected int `json:"injected"`
	// CoresLost counts cores permanently removed.
	CoresLost int `json:"cores_lost"`
	// TasksMigrated counts running tasks requeued off lost cores.
	TasksMigrated int `json:"tasks_migrated"`
	// SocketThrottles and InterferenceBursts count events by kind.
	SocketThrottles    int `json:"socket_throttles"`
	InterferenceBursts int `json:"interference_bursts"`
	// Skipped counts refused fault effects (losing the last available core,
	// already-lost or out-of-range core indices).
	Skipped int `json:"skipped"`
}

// pendingFault is one scheduled entry of the machine's fault queue; restore
// entries are synthetic events that undo a bounded socket throttle.
type pendingFault struct {
	at      float64
	ev      FaultEvent
	restore bool
}

// SetFaultPlan replaces the machine's pending fault schedule. Events dated
// before the current clock apply at the next event-loop step. Passing an
// empty plan clears pending faults (already-applied ones persist).
func (m *Machine) SetFaultPlan(plan FaultPlan) {
	m.faults = m.faults[:0]
	for _, ev := range plan.Sorted() {
		m.queueFault(pendingFault{at: ev.AtNs, ev: ev})
	}
	if len(m.faults) == 0 {
		m.faults = nil
	}
}

// InjectFault schedules one fault event; an AtNs in the past is clamped to
// the current clock so the fault lands at the machine's next step.
func (m *Machine) InjectFault(ev FaultEvent) {
	if ev.AtNs < m.now {
		ev.AtNs = m.now
	}
	m.queueFault(pendingFault{at: ev.AtNs, ev: ev})
}

// queueFault inserts in ascending time order; ties go after existing entries
// so injection order is preserved at the same instant.
func (m *Machine) queueFault(f pendingFault) {
	i := sort.Search(len(m.faults), func(i int) bool { return m.faults[i].at > f.at })
	m.faults = append(m.faults, pendingFault{})
	copy(m.faults[i+1:], m.faults[i:])
	m.faults[i] = f
}

// Faults reports the machine's applied-fault counters.
func (m *Machine) Faults() FaultStats { return m.fstats }

// PendingFaults reports how many scheduled fault events (including synthetic
// throttle restores) have not yet applied.
func (m *Machine) PendingFaults() int { return len(m.faults) }

// LostCores reports how many cores have been removed by FaultCoreLoss.
func (m *Machine) LostCores() int { return m.lostCount }

// AvailableCores reports the schedulable core count (logical minus lost).
func (m *Machine) AvailableCores() int { return len(m.cores) - m.lostCount }

// applyFaultsDue applies every pending fault dated at or before the current
// clock, in schedule order. Called at the top of each event step, before
// dispatch, so placements never use a just-lost core.
func (m *Machine) applyFaultsDue() {
	for len(m.faults) > 0 && m.faults[0].at <= m.now {
		f := m.faults[0]
		copy(m.faults, m.faults[1:])
		m.faults = m.faults[:len(m.faults)-1]
		m.applyFault(f)
	}
	if len(m.faults) == 0 {
		m.faults = nil
	}
}

func (m *Machine) applyFault(f pendingFault) {
	if f.restore {
		m.setSocketSpeed(f.ev.Socket, 1)
		return
	}
	ev := f.ev
	switch ev.Kind {
	case FaultCoreLoss:
		m.fstats.Injected++
		if len(ev.Cores) > 0 {
			for _, c := range ev.Cores {
				m.loseCore(c)
			}
			return
		}
		count := ev.Count
		if count <= 0 {
			count = 1
		}
		sock := ev.Socket % m.cfg.Sockets
		if sock < 0 {
			sock += m.cfg.Sockets
		}
		for c := sock * m.tps; c < (sock+1)*m.tps && count > 0; c++ {
			if m.lost != nil && m.lost.has(c) {
				continue
			}
			if m.loseCore(c) {
				count--
			}
		}
		for ; count > 0; count-- {
			m.fstats.Skipped++
		}
	case FaultSocketThrottle:
		m.fstats.Injected++
		m.fstats.SocketThrottles++
		factor := ev.Factor
		if factor <= 0 || factor > 1 {
			factor = 0.5
		}
		sock := ev.Socket % m.cfg.Sockets
		if sock < 0 {
			sock += m.cfg.Sockets
		}
		m.setSocketSpeed(sock, factor)
		if ev.DurationNs > 0 {
			m.queueFault(pendingFault{
				at:      f.at + ev.DurationNs,
				ev:      FaultEvent{Socket: sock},
				restore: true,
			})
		}
	case FaultInterference:
		m.fstats.Injected++
		m.fstats.InterferenceBursts++
		factor := ev.Factor
		if factor < 1 {
			factor = 1.5
		}
		for _, t := range m.run {
			t.remaining *= factor
		}
		if ev.DurationNs > 0 {
			m.burstFactor = factor
			m.burstUntil = f.at + ev.DurationNs
		}
	default:
		m.fstats.Skipped++
	}
}

// loseCore permanently removes one core, migrating any running task back to
// the ready-queue tail with its remaining work preserved. It reports whether
// the core was actually lost (false: out of range, already lost, or it is
// the machine's last available core).
func (m *Machine) loseCore(c int) bool {
	if c < 0 || c >= len(m.cores) || m.lostCount >= len(m.cores)-1 {
		m.fstats.Skipped++
		return false
	}
	if m.lost == nil {
		m.lost = newCoreSet(len(m.cores))
	}
	if m.lost.has(c) {
		m.fstats.Skipped++
		return false
	}
	m.lost.set(c)
	m.lostCount++
	m.fstats.CoresLost++
	m.idle.clear(c)
	m.idleSib.clear(c)
	if t := m.cores[c]; t != nil {
		// Migrate: the task keeps its progress and re-enters the FIFO ready
		// queue, to be re-placed (possibly on another socket) next dispatch.
		m.cores[c] = nil
		m.running--
		t.Job.running--
		m.removeRun(t)
		m.dirty[c/m.tps] = true
		m.fstats.TasksMigrated++
		m.ready = append(m.ready, t)
	}
	if m.cfg.SMT == 2 {
		// The surviving sibling now runs solo: it keeps full SMT rate (the
		// rate formula sees an empty sibling slot), and if idle it regains
		// "idle with idle sibling" placement preference.
		sib := c ^ 1
		if st := m.cores[sib]; st != nil {
			st.rateDirty = true
		} else if m.idle.has(sib) {
			m.idleSib.set(sib)
		}
	}
	return true
}

// removeRun deletes t from the running list (kept in ascending core order).
func (m *Machine) removeRun(t *Task) {
	i := sort.Search(len(m.run), func(i int) bool { return m.run[i].core >= t.core })
	if i < len(m.run) && m.run[i] == t {
		m.run = append(m.run[:i], m.run[i+1:]...)
	}
}

// setSocketSpeed sets one socket's throttle multiplier and marks its running
// tasks for rate recomputation.
func (m *Machine) setSocketSpeed(sock int, factor float64) {
	if m.sockSpeed == nil {
		m.sockSpeed = make([]float64, m.cfg.Sockets)
		for i := range m.sockSpeed {
			m.sockSpeed[i] = 1
		}
	}
	if m.sockSpeed[sock] == factor {
		return
	}
	m.sockSpeed[sock] = factor
	for c := sock * m.tps; c < (sock+1)*m.tps; c++ {
		if t := m.cores[c]; t != nil {
			t.rateDirty = true
		}
	}
}
