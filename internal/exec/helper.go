package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The evaluation helper is what makes a converged plan's parallelism real: a
// process-wide pool of GOMAXPROCS−1 goroutines, started lazily, that join a
// run's evaluateAll and claim its instructions beside the goroutine that owns
// the run. The owner and its helpers take instructions in the schedule's
// compiled order through one atomic cursor; a claimed instruction waits on its
// producers' done flags (planSchedule.producers, gates expanded), so every
// worker evaluates in a valid topological order — the one property Work and
// values need (TestEvaluateNeedsNoMachine). There is one claim loop
// (evalRun.work), whoever runs it.
//
// A helper joins only where it can pay for its wake-up:
//   - the plan object's last evaluation, summed over the workers that ran it
//     (a helped run must not turn its own gate off), took at least
//     helpMinEvalNs;
//   - the plan's DOP is at least 2, so a serial plan never gets help;
//   - an idle helper and a free core exist: the pool counts running
//     evaluations and joined helpers together and never lets them exceed
//     GOMAXPROCS, so shards × DOP cannot oversubscribe the host.
//
// Every wait of a run — a claim for a producer another worker is evaluating,
// the owner for its helpers to leave — is one wait (evalRun.wait): check the
// condition, yield with runtime.Gosched for at most parkAfterNs, then park on
// the run's own mutex and condition variable, counted in the run's sleepers.
// The spin serves the many short waits of a plan with dozens of clones, which a
// futex wake-up would lengthen; parking serves the long ones, where yielding
// kept the waiter on its thread and paid the scheduler on every yield — and,
// when the kernel had descheduled the producer's thread, kept the producer off
// the waiter's vCPU for milliseconds. Whoever can make a condition true — a
// worker that flags an instruction done or stops the run on an error, a helper
// that leaves — broadcasts when sleepers is non-zero. Go's atomics are
// sequentially consistent and a waiter counts itself a sleeper before it
// re-checks its condition under the lock, so either the waker sees the sleeper
// or the sleeper sees the condition: no wake-up is lost. A helper leaves under
// the lock, and the owner takes the lock once after the last one has left:
// the run lives in the arena, which the owner reuses as soon as retract
// returns, so no helper may still be inside the run's lock by then.
//
// Nothing a run measures depends on who evaluated what: values and Work are
// the same with or without a helper, and so is everything after evaluateAll.
const (
	// helpMinEvalNs gates a join on the plan object's last evaluation
	// length. A parked helper starts 90–160 µs after its offer on a 2-vCPU
	// host (/stats helper.start_us / joins); below ~400 µs the wake costs
	// more than the split saves, and a 150 µs gate slowed rows_churn's cold
	// steps by 11 %.
	helpMinEvalNs = 400_000
	// parkAfterNs bounds a wait's spin. Parking at once cost join_hot 4 %
	// in p50 and 3.5 % in wall speedup (a futex wake-up is tens of
	// microseconds); spin budgets from 10 to 200 µs cost the same CPU, so
	// the bound is a latency choice.
	parkAfterNs = 50_000
	// maxHelpers bounds the pool: a run records the helpers it offered
	// itself to in one word.
	maxHelpers = 63
)

// helperPool is the process-wide set of helpers and its counters. Helpers are
// never stopped: like the runtime's own workers they live as long as the
// process, and a parked one costs its goroutine's stack and nothing else.
type helperPool struct {
	// cores is the budget of evaluations plus joined helpers; 0 reads
	// GOMAXPROCS at every offer. force makes every run offer itself, whatever
	// its length and DOP, and wait until a helper takes it; parkAtOnce makes
	// every wait of its runs park without spinning (tests only, both).
	cores      int
	force      bool
	parkAtOnce bool

	mu      sync.Mutex // serializes starting helpers
	helpers atomic.Pointer[[]*helper]

	busy                     atomic.Int32 // running evaluations + joined helpers
	joins, declined, startNs atomic.Int64
	waitNs, retractNs, parks atomic.Int64
}

// evalHelpers is the process's pool. Tests swap it for one with a fixed
// budget.
var evalHelpers = &helperPool{}

// helper is one pool goroutine: the slot an owner publishes its run in, the
// channel it wakes the helper through, and whether the helper is on a run.
type helper struct {
	slot    atomic.Pointer[evalRun]
	wake    chan struct{}
	working atomic.Bool
}

// HelperStats is the process-wide helper block of /stats.
type HelperStats struct {
	// Joins counts offers a helper took; Declined counts runs that passed
	// the length and DOP gates but found no idle helper or no free core;
	// StartUs is the total time from offer to a helper's start, so
	// StartUs / Joins is the mean wake latency. WaitUs is the time every
	// worker of a shared run, owner and helpers, waited for a producer;
	// RetractUs the time owners waited for their helpers to leave; Parks
	// counts the waits that outlived their spin and parked.
	Joins     int64 `json:"joins"`
	Declined  int64 `json:"declined"`
	StartUs   int64 `json:"start_us"`
	WaitUs    int64 `json:"wait_us"`
	RetractUs int64 `json:"retract_us"`
	Parks     int64 `json:"parks"`
}

// EvalHelperStats snapshots the process-wide evaluation helper's counters.
func EvalHelperStats() HelperStats { return evalHelpers.stats() }

func (p *helperPool) stats() HelperStats {
	return HelperStats{
		Joins: p.joins.Load(), Declined: p.declined.Load(), StartUs: p.startNs.Load() / 1e3,
		WaitUs: p.waitNs.Load() / 1e3, RetractUs: p.retractNs.Load() / 1e3, Parks: p.parks.Load(),
	}
}

// spinNs is how long a wait of the pool's runs spins before it parks.
func (p *helperPool) spinNs() int64 {
	if p.parkAtOnce {
		return 0
	}
	return parkAfterNs
}

var monoBase = time.Now()

// monoNs reads the monotonic clock.
func monoNs() int64 { return int64(time.Since(monoBase)) }

// budget is the pool's core budget right now.
func (p *helperPool) budget() int {
	if p.cores > 0 {
		return p.cores
	}
	return runtime.GOMAXPROCS(0)
}

// started returns the pool's helpers, starting more until there are n.
func (p *helperPool) started(n int) []*helper {
	if hs := p.helpers.Load(); hs != nil && len(*hs) >= n {
		return *hs
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var hs []*helper
	if cur := p.helpers.Load(); cur != nil {
		hs = *cur
	}
	if len(hs) < n {
		hs = hs[:len(hs):len(hs)] // the published slice is never written
		for len(hs) < n {
			h := &helper{wake: make(chan struct{}, 1)}
			go p.serve(h)
			hs = append(hs, h)
		}
		p.helpers.Store(&hs)
	}
	return hs
}

// offer publishes r to idle helpers when the run passes the gates, and
// returns how many it was offered to. It reserves one core per offer; the
// helper that takes it, or retract, gives the core back.
func (p *helperPool) offer(r *evalRun) int {
	s := r.j.sched
	if !p.force && (s.evalNs.Load() < helpMinEvalNs || s.dop < 2) {
		return 0
	}
	cores := p.budget()
	want := min(cores-1, maxHelpers)
	if !p.force {
		want = min(want, s.dop-1)
	}
	if want <= 0 {
		return 0
	}
	offered := 0
	for k, h := range p.started(want) {
		if offered == want {
			break
		}
		if h.working.Load() || h.slot.Load() != nil || !p.reserve(cores) {
			continue
		}
		if offered == 0 {
			r.share(1 + want)
		}
		if !h.slot.CompareAndSwap(nil, r) {
			p.busy.Add(-1)
			continue
		}
		r.offeredTo |= 1 << k
		offered++
		select {
		case h.wake <- struct{}{}:
		default: // a wake-up is already pending
		}
		if p.force {
			for h.slot.Load() == r {
				runtime.Gosched()
			}
		}
	}
	if offered == 0 {
		r.shared = false
		p.declined.Add(1)
	}
	return offered
}

// reserve takes one core of the budget for a helper, if one is free.
func (p *helperPool) reserve(cores int) bool {
	for {
		b := p.busy.Load()
		if int(b) >= cores {
			return false
		}
		if p.busy.CompareAndSwap(b, b+1) {
			return true
		}
	}
}

// retract withdraws r's offers that no helper took and waits until every
// helper that took one has left the run.
func (p *helperPool) retract(r *evalRun) {
	hs := *p.helpers.Load()
	var taken int32
	for k, h := range hs {
		if r.offeredTo&(1<<k) == 0 {
			continue
		}
		if h.slot.CompareAndSwap(r, nil) {
			p.busy.Add(-1)
		} else {
			taken++
		}
	}
	if taken == 0 {
		return
	}
	p.retractNs.Add(r.wait(func() bool { return r.left.Load() >= taken }))
	// The last helper may still be inside the lock it left under.
	r.mu.Lock()
	r.mu.Unlock()
}

// serve is a helper's life: take an offer, work the run until its cursor is
// exhausted, give the core back, leave — and touch the run no more.
func (p *helperPool) serve(h *helper) {
	for {
		p.help(h, h.next())
	}
}

// help works r as helper h until r's cursor is exhausted or the run stops.
func (p *helperPool) help(h *helper, r *evalRun) {
	h.working.Store(true)
	p.joins.Add(1)
	p.startNs.Add(monoNs() - r.offeredNs)
	r.work(int(r.slots.Add(1)))
	p.busy.Add(-1)
	h.working.Store(false)
	r.mu.Lock()
	r.left.Add(1)
	if r.sleepers.Load() > 0 {
		r.cond.Broadcast()
	}
	r.mu.Unlock()
}

// wait blocks the calling worker until ready holds and returns how long it
// waited: it yields for at most its pool's spin budget, then parks on the
// run's condition until a wake-up finds ready true. ready must become true
// only through a write that is followed by wake (or, for left, a broadcast
// under mu).
func (r *evalRun) wait(ready func() bool) int64 {
	if ready() {
		return 0
	}
	start, spin := monoNs(), r.pool.spinNs()
	for monoNs()-start < spin {
		runtime.Gosched()
		if ready() {
			return monoNs() - start
		}
	}
	r.pool.parks.Add(1)
	r.mu.Lock()
	r.sleepers.Add(1)
	for !ready() {
		r.cond.Wait()
	}
	r.sleepers.Add(-1)
	r.mu.Unlock()
	return monoNs() - start
}

// wake wakes the run's parked workers, if any, after a write that may have
// made their condition true.
func (r *evalRun) wake() {
	if r.sleepers.Load() > 0 {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}

// next parks the helper until an offer is in its slot. An owner publishes its
// offer before it wakes the helper, so no offer is lost; a wake-up whose offer
// was already taken or retracted only sends the helper back to sleep. The
// helper does not poll for the next offer after a run: on a 2-vCPU host every
// microsecond of polling was CPU taken from the request and the writer beside
// it (see ROADMAP 1(c) for the measurements).
func (h *helper) next() *evalRun {
	for {
		if r := h.slot.Swap(nil); r != nil {
			return r
		}
		<-h.wake
	}
}
