package exec

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// The engine-level, size-classed buffer recycler — the cold path's answer to
// the per-plan arena. The arena only pays off once a plan OBJECT repeats
// (the converged serving path); the adaptive exploration phase retires a
// freshly mutated plan every step, so each converging run used to allocate
// its kernel output buffers, task slab and dependency counters from scratch
// and pin them on a dead schedule until cache eviction. The recycler closes
// that loop: when a plan is retired (Engine.Retire, schedule-cache eviction)
// its arena buffers return to per-size-class free lists on the engine, and
// the next mutated plan's arena draws from them. The engine is owned by one
// shard lock in the server, but a run's evaluation may be shared with the
// process-wide evaluation helper (helper.go), whose kernels grow buffers
// through grown on another goroutine: the recycler's mutex is what makes that
// safe, and it is contended exactly while a helped run's two workers grow at
// once. Counters are atomics so /stats can read them without the engine lock.
//
// Ownership discipline is inherited from the arena's escape analysis:
// result-reachable values are NEVER backed by arena buffers (planBuffers
// excludes them), so everything an arena holds at retirement is dead
// intermediate state, safe to hand to another plan. Buffers are returned
// zero-length-reset — length 0 over the retained capacity, contents left as
// is — never zeroed wholesale: every consumer either appends from :0 (oid
// kernels) or extends to exactly the range it fully overwrites (column
// kernels), so stale values from a previous query are unreachable by
// construction. TestRecyclerNoStaleLeak pins that.
const (
	// recyclerMinBits: class 0 holds buffers with capacity < 2^7; classes
	// ascend by powers of two up to recyclerMaxBits.
	recyclerMinBits = 6
	recyclerMaxBits = 24 // largest pooled buffer: 16M values (128 MB)
	recyclerClasses = recyclerMaxBits - recyclerMinBits + 1
	// recyclerPerClass bounds each class's free list; recyclerMaxBytes
	// bounds total retained bytes so one giant workload cannot turn the
	// recycler into a leak.
	recyclerPerClass = 8
	recyclerMaxBytes = 256 << 20
	// recyclerMaxShells bounds retained arena shells (slabs of task/env/
	// dependency state whose capacity adapts to whatever plan checks out).
	recyclerMaxShells = 8
)

// putClass is the class whose free list a buffer of capacity c files under:
// floor(log2(c)) clamped to the class range, so every resident of class k
// has capacity >= 2^(recyclerMinBits+k).
func putClass(c int) int {
	if c <= 0 {
		return -1
	}
	b := bits.Len(uint(c)) - 1
	if b < recyclerMinBits {
		return -1 // tiny buffers are cheaper to reallocate than to pool
	}
	if b > recyclerMaxBits {
		return -1 // beyond the pooled range: let the GC have it
	}
	return b - recyclerMinBits
}

// getClass is the smallest class guaranteed to satisfy a request for n
// values: ceil(log2(n)) mapped into the class range.
func getClass(n int) int {
	if n <= 1 {
		return 0
	}
	b := bits.Len(uint(n - 1))
	if b < recyclerMinBits {
		return 0
	}
	if b > recyclerMaxBits {
		return -1 // larger than anything pooled
	}
	return b - recyclerMinBits
}

// classSize reports a class's guaranteed minimum capacity (for stats).
func classSize(k int) int { return 1 << (recyclerMinBits + k) }

type classCounters struct {
	hits, misses atomic.Int64
}

// bufRecycler is the engine's size-classed free store.
type bufRecycler struct {
	mu     sync.Mutex
	free   [recyclerClasses][][]int64
	shells []*jobArena
	bytes  int64 // retained buffer bytes (free lists only)

	class                  [recyclerClasses]classCounters
	shellHits, shellMisses atomic.Int64
	puts, drops            atomic.Int64
}

// getBuf returns a recycled buffer with capacity >= n, zero-length-reset, or
// nil on miss (the caller allocates). Misses and hits are counted per size
// class so /stats can show where the pool is working.
func (r *bufRecycler) getBuf(n int) []int64 {
	k := getClass(n)
	if k < 0 {
		return nil
	}
	r.mu.Lock()
	// The exact class satisfies by construction; the next class up is an
	// acceptable (≤4×) overshoot that saves an allocation.
	for c := k; c < recyclerClasses && c <= k+1; c++ {
		if l := len(r.free[c]); l > 0 {
			buf := r.free[c][l-1]
			r.free[c][l-1] = nil
			r.free[c] = r.free[c][:l-1]
			r.bytes -= int64(cap(buf)) * 8
			r.mu.Unlock()
			r.class[k].hits.Add(1)
			return buf[:0]
		}
	}
	r.mu.Unlock()
	r.class[k].misses.Add(1)
	return nil
}

// putBuf files buf's capacity for reuse. The buffer must be dead: nothing
// result-reachable may alias it (the arena escape analysis guarantees this
// for everything it recycles).
func (r *bufRecycler) putBuf(buf []int64) {
	k := putClass(cap(buf))
	if k < 0 {
		if cap(buf) > 0 {
			r.drops.Add(1)
		}
		return
	}
	r.mu.Lock()
	if len(r.free[k]) >= recyclerPerClass || r.bytes+int64(cap(buf))*8 > recyclerMaxBytes {
		r.mu.Unlock()
		r.drops.Add(1)
		return
	}
	r.free[k] = append(r.free[k], buf[:0])
	r.bytes += int64(cap(buf)) * 8
	r.mu.Unlock()
	r.puts.Add(1)
}

// putSlots files whatever buffers one instruction's result slots still hold
// and empties them.
func (r *bufRecycler) putSlots(slots *[2][]int64) {
	for i, buf := range slots {
		if buf != nil {
			r.putBuf(buf)
			slots[i] = nil
		}
	}
}

// grown is the one way an arena buffer is replaced. old is returned as is
// when it already holds n values. Otherwise old — which backs only dead
// intermediates of a previous invocation — is filed for other plans and a
// replacement of capacity >= n is drawn from the pool, zero-length; nil on a
// miss: column destinations then allocate exactly n, appending oid kernels
// allocate at their own estimate. Either way the consumer overwrites or
// appends over everything it exposes, so stale values cannot surface.
func (r *bufRecycler) grown(old []int64, n int) []int64 {
	if cap(old) >= n {
		return old
	}
	if old != nil {
		r.putBuf(old)
	}
	return r.getBuf(n)
}

// getShell returns a retired arena shell — slabs (env, pending, sim-task
// slab, scratch) keep their capacity and are re-sized by prepare —
// or a fresh empty arena.
func (r *bufRecycler) getShell() *jobArena {
	r.mu.Lock()
	if l := len(r.shells); l > 0 {
		a := r.shells[l-1]
		r.shells[l-1] = nil
		r.shells = r.shells[:l-1]
		r.mu.Unlock()
		r.shellHits.Add(1)
		return a
	}
	r.mu.Unlock()
	r.shellMisses.Add(1)
	return &jobArena{}
}

// putShell strips a's kernel and exchange buffers into the size-classed
// free lists, drops the last run's values (release kept them for a child
// that might adopt the arena) and retains the shell. Called only for arenas
// checked back into a retired schedule: their values are dead and release
// already dropped the task references.
func (r *bufRecycler) putShell(a *jobArena) {
	clear(a.env)
	a.valsOf, a.reuse = nil, nil
	for i := range a.bufs {
		r.putSlots(&a.bufs[i])
	}
	for i, buf := range a.groupBufs {
		if buf != nil {
			a.groupBufs[i] = nil
			r.putBuf(buf)
		}
	}
	for i := range a.groupRuns {
		a.groupRuns[i] = groupRun{}
	}
	// For memory, not correctness (a wrapper hits only on exact buffer
	// identity, and nothing cached on one outlives a run): an idle shell must
	// not pin the retired plan's hash indexes, nor through argViews its
	// epoch's catalog columns.
	a.forgetWrappers()
	r.mu.Lock()
	if len(r.shells) < recyclerMaxShells {
		r.shells = append(r.shells, a)
	}
	r.mu.Unlock()
}

// RecyclerClassStats is one size class's hit/miss counters.
type RecyclerClassStats struct {
	// Size is the class's guaranteed minimum capacity in values.
	Size   int   `json:"size"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// RecyclerStats snapshots the engine buffer recycler for /stats.
type RecyclerStats struct {
	BufferHits    int64 `json:"buffer_hits"`
	BufferMisses  int64 `json:"buffer_misses"`
	ShellHits     int64 `json:"shell_hits"`
	ShellMisses   int64 `json:"shell_misses"`
	Puts          int64 `json:"puts"`
	Drops         int64 `json:"drops"`
	RetainedBytes int64 `json:"retained_bytes"`
	// Classes lists the size classes with any traffic, ascending.
	Classes []RecyclerClassStats `json:"classes,omitempty"`
}

// RecyclerStats snapshots the engine's buffer recycler counters. Counters
// are atomics: the snapshot is safe without the engine-ownership lock.
func (e *Engine) RecyclerStats() RecyclerStats {
	r := &e.recycler
	st := RecyclerStats{
		ShellHits:   r.shellHits.Load(),
		ShellMisses: r.shellMisses.Load(),
		Puts:        r.puts.Load(),
		Drops:       r.drops.Load(),
	}
	r.mu.Lock()
	st.RetainedBytes = r.bytes
	r.mu.Unlock()
	for k := range r.class {
		h, m := r.class[k].hits.Load(), r.class[k].misses.Load()
		st.BufferHits += h
		st.BufferMisses += m
		if h != 0 || m != 0 {
			st.Classes = append(st.Classes, RecyclerClassStats{Size: classSize(k), Hits: h, Misses: m})
		}
	}
	return st
}

// CompileStats counts plan compilations for /stats by where the compiled
// plan's first arena came from.
type CompileStats struct {
	// Every compilation builds the schedule from the plan alone. Derived
	// counts those that then adopted the idle arena of the plan they were
	// mutated from (JobOptions.DerivedFrom), Full those that did not and
	// start from the pool; Retired counts schedules dropped via Retire.
	Full    int64 `json:"full"`
	Derived int64 `json:"derived"`
	Retired int64 `json:"retired"`
	// ReusedInstrs counts instructions a derived plan's first run took from
	// its parent's last run (value and Work) instead of evaluating.
	ReusedInstrs int64 `json:"reused_instrs"`
}

// CompileStats snapshots the engine's compilation counters.
func (e *Engine) CompileStats() CompileStats {
	return CompileStats{
		Full:         e.fullCompiles.Load(),
		Derived:      e.derivedCompiles.Load(),
		Retired:      e.retiredPlans.Load(),
		ReusedInstrs: e.reusedInstrs.Load(),
	}
}
