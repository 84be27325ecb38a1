package exec

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/vec"
)

// Engine hosts plan executions on one simulated machine. Multiple plans may
// be in flight simultaneously (the concurrent-workload experiments); they
// compete for the machine's cores and memory bandwidth exactly as the
// paper's concurrent clients do.
type Engine struct {
	cat    *storage.Catalog
	mach   *sim.Machine
	params cost.Params

	schedMu   sync.Mutex
	sched     map[*plan.Plan]*planSchedule
	schedFifo []*plan.Plan

	// recycler is the engine-level size-classed buffer pool serving arenas
	// of retired (mutated, one-shot) plans back to new ones — see
	// recycler.go for the ownership discipline.
	recycler bufRecycler

	fullCompiles, derivedCompiles, retiredPlans atomic.Int64
	replayedRuns, simulatedRuns, reusedInstrs   atomic.Int64
	helpedRuns                                  atomic.Int64
}

// NewEngine creates an engine over the catalog with a fresh machine.
func NewEngine(cat *storage.Catalog, machineCfg sim.Config, params cost.Params) *Engine {
	return &Engine{
		cat:    cat,
		mach:   sim.NewMachine(machineCfg),
		params: params,
		sched:  make(map[*plan.Plan]*planSchedule),
	}
}

// Output-buffer classes the arena recycles, one per instruction result (an
// instruction has at most two; only a join's second is ever classed). bufNone
// marks results that either escape (query results), are owned by a pack
// group's shared buffer, or have no recyclable Into kernel.
const (
	bufNone uint8 = iota
	bufOids       // an oid vector (select / selectcand / likeselect / oid pack / either join side)
	bufCol        // a column payload (fetch / calc / scalar pack)
)

// schedGroup is one planned pack group (plan.PackGroup resolved against the
// dependency graph): the exchange union whose clones write disjoint ranges
// of one shared result buffer so the pack becomes a view.
type schedGroup struct {
	pack   int32
	clones []int32
	// recycle reports that neither the pack's nor any clone's result is a
	// query result, so the shared buffer may return to the arena and be
	// rewritten by the next invocation.
	recycle bool
	// anchorVar names each clone's anchor value: clone m's window is its
	// anchor's length under its own Part, and the windows follow in clone
	// order (initGroup).
	anchorVar []plan.VarID
}

// planSchedule is the per-plan execution scaffolding that is identical
// across runs of the same (immutable) plan object: validation outcome, the
// argument-dependency graph, initial unresolved-producer counts, the
// zero-copy exchange plan (pack groups and recyclable output buffers), and
// the arena of run-state buffers the next invocation reuses. The
// plan-session cache executes one plan object per request once a query
// converges, so caching this removes both the per-run O(instrs × args)
// graph rebuild and the hot path's result-buffer allocations. The graph's
// nodes are the instructions, then the pack groups' gates (addGate).
type planSchedule struct {
	pending []int32   // unresolved producer count per node
	waiters [][]int32 // waiters[i] = nodes waiting on node i
	roots   []int32   // instructions with no unresolved producers
	order   []int32   // the one evaluation order (compileOrder)

	groups    []schedGroup
	cloneOf   []int32    // instr -> pack-group index it is a clone of, or -1
	memberOf  []int32    // instr -> clone position within its group
	packGroup []int32    // instr -> pack-group index it is the pack of, or -1
	outBuf    [][2]uint8 // instr × result -> recyclable output-buffer class
	// buildsInner has bit r set when instr's r-th result is some join's inner
	// and instr is not a bind: evaluate builds that intermediate's hash index
	// as it publishes it and is charged for it. A bind's column is the
	// catalog's, and so is its index: built on first probe, charged to no
	// plan.
	buildsInner []uint8

	// dop is the plan's MaxDOP and evalNs its last run's evaluation length,
	// summed over the workers that ran it: the evaluation helper's gates.
	// prods lists each instruction's producers with gates expanded, compiled
	// on the first run a helper may join (producers).
	dop    int
	evalNs atomic.Int64
	prods  [][]int32

	arenaMu sync.Mutex
	arena   *jobArena // idle arena of the last completed invocation

	// rec is the plan object's last recorded event-core run (replay.go). Only
	// ExecuteOpts touches it, on the goroutine that owns the machine.
	rec runRecord
}

func (s *planSchedule) takeArena() *jobArena {
	s.arenaMu.Lock()
	a := s.arena
	s.arena = nil
	s.arenaMu.Unlock()
	return a
}

func (s *planSchedule) putArena(a *jobArena) {
	s.arenaMu.Lock()
	s.arena = a
	s.arenaMu.Unlock()
}

// maxCachedSchedules bounds the schedule cache; adaptive sessions retire
// mutated plans constantly, so stale entries must not accumulate.
const maxCachedSchedules = 256

// scheduleFor returns the cached schedule for p, validating and building it
// on first sight of the plan object. Plans must not be mutated in place
// after submission (mutation always clones). A schedule is a function of the
// plan alone; opts.DerivedFrom only decides where its first arena comes from.
func (e *Engine) scheduleFor(p *plan.Plan, opts JobOptions) (*planSchedule, error) {
	e.schedMu.Lock()
	if s, ok := e.sched[p]; ok {
		e.schedMu.Unlock()
		return s, nil
	}
	var parent *planSchedule
	if opts.DerivedFrom != nil {
		parent = e.sched[opts.DerivedFrom]
	}
	e.schedMu.Unlock()

	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := buildSchedule(p)
	// Adopt the parent's idle arena: matched instructions inherit their
	// settled kernel buffers (no pool round trip, no append-regrowth on the
	// child's first run), reusable ones their last value and Work too; buffers
	// the mutation orphaned go to the pool. The parent plan will typically be
	// retired within a step or two; if it does run again it simply rebuilds an
	// arena.
	var a *jobArena
	if parent != nil {
		a = parent.takeArena()
	}
	if a != nil {
		a.remapTo(s, parent, &e.recycler, p, plan.ComputeDiff(opts.DerivedFrom, p))
		s.putArena(a)
		e.derivedCompiles.Add(1)
	} else {
		e.fullCompiles.Add(1)
	}

	e.schedMu.Lock()
	if len(e.schedFifo) >= maxCachedSchedules {
		for _, old := range e.schedFifo[:maxCachedSchedules/2] {
			if os, ok := e.sched[old]; ok {
				delete(e.sched, old)
				if a := os.takeArena(); a != nil {
					e.recycler.putShell(a)
				}
			}
		}
		e.schedFifo = append(e.schedFifo[:0], e.schedFifo[maxCachedSchedules/2:]...)
	}
	e.sched[p] = s
	e.schedFifo = append(e.schedFifo, p)
	e.schedMu.Unlock()
	return s, nil
}

// Retire drops p's cached compilation and recycles its arena — dependency
// counters, task slab, kernel output buffers and shared exchange buffers —
// into the engine's size-classed pool, where the next (typically freshly
// mutated) plan's arena draws from. Adaptive sessions call it the moment a
// mutated plan is superseded; the serving layer calls it after one-shot
// serial executions. Retiring a plan that is later re-submitted is safe: it
// just compiles again.
func (e *Engine) Retire(p *plan.Plan) {
	if p == nil {
		return
	}
	e.schedMu.Lock()
	s, ok := e.sched[p]
	if ok {
		delete(e.sched, p)
		for i, q := range e.schedFifo {
			if q == p {
				e.schedFifo = append(e.schedFifo[:i], e.schedFifo[i+1:]...)
				break
			}
		}
	}
	e.schedMu.Unlock()
	if !ok {
		return
	}
	e.retiredPlans.Add(1)
	if a := s.takeArena(); a != nil {
		e.recycler.putShell(a)
	}
}

// buildSchedule compiles p: the argument-dependency graph (pending counts,
// waiter lists, roots), the buffer plan and its groups' gates, and the order
// every run evaluates the instructions in.
func buildSchedule(p *plan.Plan) *planSchedule {
	n := len(p.Instrs)
	s := &planSchedule{
		pending:     make([]int32, n),
		waiters:     make([][]int32, n),
		cloneOf:     make([]int32, n),
		memberOf:    make([]int32, n),
		packGroup:   make([]int32, n),
		outBuf:      make([][2]uint8, n),
		buildsInner: make([]uint8, n),
	}
	producer := p.Producers()
	for i, in := range p.Instrs {
		s.addDeps(int32(i), in, producer)
		if s.pending[i] == 0 {
			s.roots = append(s.roots, int32(i))
		}
		// Only a join's outer is sliced (opSpecs), so the inner it reads is
		// exactly the column its producer publishes.
		if in.Op == plan.OpJoin {
			if src := producer[in.Args[1]]; src >= 0 && p.Instrs[src].Op != plan.OpBind {
				s.buildsInner[src] |= 1 << slices.Index(p.Instrs[src].Rets, in.Args[1])
			}
		}
	}
	s.planBuffers(p, producer)
	s.order = s.compileOrder(n)
	s.dop = p.MaxDOP()
	return s
}

// producers compiles, once per schedule, what a claimed instruction waits on
// when helpers share its run: every instruction it is a waiter of, and
// through its group's gate, every producer the gate waits on.
func (s *planSchedule) producers() {
	if s.prods != nil {
		return
	}
	n := len(s.cloneOf)
	s.prods = make([][]int32, n)
	for u := 0; u < n; u++ {
		for _, w := range s.waiters[u] {
			if int(w) < n {
				s.prods[w] = append(s.prods[w], int32(u))
				continue
			}
			for _, c := range s.waiters[w] {
				s.prods[c] = append(s.prods[c], int32(u))
			}
		}
	}
}

// compileOrder is Kahn's algorithm over the graph, first in first out from
// the roots: an instruction follows every producer it waits on. A gate is
// passed through as release does — once its producers are all ordered it
// counts itself off its clones — and is not emitted.
func (s *planSchedule) compileOrder(n int) []int32 {
	pending := slices.Clone(s.pending)
	order := append(make([]int32, 0, n), s.roots...)
	var resolve func(w int32)
	resolve = func(w int32) {
		if pending[w]--; pending[w] != 0 {
			return
		}
		if int(w) < n {
			order = append(order, w)
			return
		}
		for _, c := range s.waiters[w] {
			resolve(c)
		}
	}
	for k := 0; k < len(order); k++ {
		for _, w := range s.waiters[order[k]] {
			resolve(w)
		}
	}
	return order
}

// addDeps wires instruction i's argument-producer edges into the graph.
func (s *planSchedule) addDeps(i int32, in *plan.Instr, producer []int32) {
	seen := int32(-1)
	for _, a := range in.Args {
		if src := producer[a]; src >= 0 && src != seen {
			// Duplicate producers of one instruction are rare; dedupe
			// against the full waiter set only when they occur.
			dup := false
			for _, w := range s.waiters[src] {
				if w == i {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			seen = src
			s.pending[i]++
			s.waiters[src] = append(s.waiters[src], i)
		}
	}
}

// planBuffers computes the zero-copy exchange plan: the plan's pack groups
// (shared clone buffers, view packs) and the per-instruction output buffers
// the arena may recycle across invocations. Anything whose output reaches
// the query result is excluded — result values escape to callers, so their
// buffers must stay immutable forever and are allocated fresh each run.
func (s *planSchedule) planBuffers(p *plan.Plan, producer []int32) {
	for i := range s.cloneOf {
		s.cloneOf[i], s.memberOf[i], s.packGroup[i] = -1, -1, -1
	}
	resultArg := make([]bool, p.NVars())
	for _, in := range p.Instrs {
		if in.Op == plan.OpResult {
			for _, a := range in.Args {
				resultArg[a] = true
			}
		}
	}
	claimed := make([]bool, len(p.Instrs))
	for k, in := range p.Instrs {
		if in.Op != plan.OpPack {
			continue
		}
		g, ok := p.PackGroupAt(k, producer, claimed)
		if !ok {
			continue
		}
		gi := int32(len(s.groups))
		s.groups = append(s.groups, buildGroup(p, g, resultArg))
		s.packGroup[k] = gi
		for m, ci := range g.Clones {
			claimed[ci] = true
			s.cloneOf[ci] = gi
			s.memberOf[ci] = int32(m)
		}
		s.addGate(&s.groups[gi], producer)
	}
	for i, in := range p.Instrs {
		if s.cloneOf[i] >= 0 {
			continue // group clones write the shared buffer instead
		}
		for r, ret := range in.Rets {
			if !resultArg[ret] {
				s.outBuf[i][r] = outClass(p, in, r)
			}
		}
	}
}

// outClass is the buffer class of in's r-th result when nothing keeps it
// alive past the run.
func outClass(p *plan.Plan, in *plan.Instr, r int) uint8 {
	switch in.Op {
	case plan.OpSelect, plan.OpSelectCand, plan.OpLikeSelect, plan.OpJoin:
		return bufOids
	case plan.OpFetch, plan.OpFetchPos, plan.OpCalcVV, plan.OpCalcSV, plan.OpCalcSSV:
		return bufCol
	case plan.OpPack:
		switch p.KindOf(in.Rets[r]) {
		case plan.KindOids:
			return bufOids
		case plan.KindColumn:
			if p.KindOf(in.Args[0]) == plan.KindScalar {
				// Scalar partial packs own their gathered slice
				// (PackScalarsOwned); column packs either become views
				// (group) or concatenate into a fresh vector.
				return bufCol
			}
		}
	}
	return bufNone
}

// buildGroup resolves a plan.PackGroup into the executor's schedGroup form.
func buildGroup(p *plan.Plan, g plan.PackGroup, resultArg []bool) schedGroup {
	pk := p.Instrs[g.Pack]
	sg := schedGroup{
		pack:    int32(g.Pack),
		recycle: !resultArg[pk.Rets[0]],
	}
	anchorArg := plan.SliceArgs(p.Instrs[g.Clones[0]].Op)[0]
	for _, ci := range g.Clones {
		c := p.Instrs[ci]
		if resultArg[c.Rets[0]] {
			sg.recycle = false
		}
		sg.clones = append(sg.clones, int32(ci))
		sg.anchorVar = append(sg.anchorVar, c.Args[anchorArg])
	}
	return sg
}

// addGate appends a gate node for sg when its anchors come from two or more
// producers (the propagated shape; a sliced group's clones share one anchor).
// Each clone already waits on its own anchor's producer; the gate makes it
// wait on its siblings' too, so the group's windows are a function of the
// schedule, not of which producers happen to have run.
func (s *planSchedule) addGate(sg *schedGroup, producer []int32) {
	first := producer[sg.anchorVar[0]]
	if !slices.ContainsFunc(sg.anchorVar, func(v plan.VarID) bool { return producer[v] != first }) {
		return
	}
	gate := int32(len(s.pending))
	s.pending = append(s.pending, 0)
	for _, v := range sg.anchorVar {
		if src := producer[v]; !slices.Contains(s.waiters[src], gate) {
			s.waiters[src] = append(s.waiters[src], gate)
			s.pending[gate]++
		}
	}
	s.waiters = append(s.waiters, sg.clones)
	for _, ci := range sg.clones {
		s.pending[ci]++
	}
}

// groupRun is the per-invocation state of one pack group: the shared buffer
// builder, each clone's write offset, and how much each clone wrote. mu is the
// once-guard of the layout: two clones a gate releases together may race for
// it on two workers, and exactly one lays the windows out and binds the
// builder's dictionary (cloneShared).
type groupRun struct {
	mu      sync.Mutex
	bld     *vec.Builder
	dict    *vec.Dict
	offs    []int // len = clones+1; clone m writes [offs[m], offs[m+1])
	written []int // values actually written per clone; -1 = pending
	total   int
}

// jobArena holds every run-state buffer of one plan invocation. It is
// checked out of the plan's schedule at submit and returned at completion
// (at once when the run is replayed or an evaluation fails), so repeated
// invocations of a cached plan (the converged serving path) allocate almost
// nothing: the value store (env, the one home of every result), each
// instruction's Work, dependency counters, the sim-task slab, kernel output
// buffers and shared exchange buffers are all rewritten in place.
//
// While evaluateAll runs, helpers may evaluate beside the run's owner
// (helper.go). Every arena write of an evaluation is then either per
// instruction (env by VarID, work, bufs, outCols, argViews, done, a clone's
// window and written entry), per worker (scratch), once per group under its
// lock (groupRuns, groupBufs), or through the recycler's mutex; the owner
// alone touches the rest, and only before it offers the run or after every
// helper has left it.
type jobArena struct {
	// env and work keep the last run's values and Work past release, until the
	// arena's next checkout: the same plan object's next prepare clears env,
	// remapTo keeps only the values the child reuses, putShell drops them all.
	// At submit a zero env entry is a variable not evaluated yet.
	env  []Value
	work []algebra.Work
	// valsOf is the catalog env and work were computed over, set when a run
	// finishes evaluateAll on the shared-buffer exchange; nil when they hold
	// nothing a child may reuse (a failed or CopyExchange run). reuse marks
	// the instructions an adopted arena's next run takes from them instead of
	// evaluating (remapTo); nil when there are none.
	valsOf    *storage.Catalog
	reuse     []bool
	pending   []int32
	tasks     []instrTask
	bufs      [][2][]int64 // per-instruction, per-result recycled output buffers
	groupBufs [][]int64    // per-group shared exchange buffers
	groupRuns []groupRun   // per-group run state

	// run is the current evaluateAll; done flags each evaluated instruction
	// while helpers share the run; scratch holds each worker's argument
	// scratch, the owner's first.
	run     evalRun
	done    []atomic.Bool
	scratch []evalScratch

	// outCols / argViews memoize the per-instruction column wrappers:
	// executing a cached plan is deterministic, so instruction idx wraps the
	// same buffer range under the same head sequence every run — the Column
	// and Vector objects can be reused instead of re-allocated. A cache hit
	// requires exact slice identity with the instruction's current buffer
	// (plus seq and dict), so a recycled or regrown buffer can never produce
	// a false hit. The cached wrappers alias only arena-owned or immutable
	// base storage, never result values. Nothing cached on a wrapper outlives
	// its run's contents: an intermediate join inner's index is rebuilt by its
	// producer every run (publish).
	outCols  []outColCache
	argViews [][2]argViewCache
}

// forgetWrappers drops every memoized column wrapper.
func (a *jobArena) forgetWrappers() {
	clear(a.outCols)
	clear(a.argViews)
}

// outColCache memoizes one instruction's wrapped output column.
type outColCache struct {
	vals []int64
	dict *vec.Dict
	seq  int64
	col  *storage.Column
}

// argViewCache memoizes one sliced argument view (instruction × slice-arg
// position).
type argViewCache struct {
	src    *storage.Column
	lo, hi int
	col    *storage.Column
}

// sameInt64s reports exact slice identity (same backing position and
// length) — the cache-hit condition that makes buffer recycling safe.
func sameInt64s(a, b []int64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// sized returns slab with length n, reallocated only when its capacity is
// short (a slab that fits keeps its contents: settled buffers, memoized
// wrappers).
func sized[T any](slab []T, n int) []T {
	if cap(slab) < n {
		return make([]T, n)
	}
	return slab[:n]
}

// prepare sizes the arena for the plan and resets per-run state. Reuse an
// adoption set up survives only for a run over the catalog the kept values
// came from, on the shared-buffer exchange; otherwise env starts empty.
func (a *jobArena) prepare(s *planSchedule, p *plan.Plan, cat *storage.Catalog, copyExchange bool) {
	n := len(p.Instrs)
	if a.valsOf != cat || copyExchange {
		a.reuse = nil
	}
	a.valsOf = nil
	a.env = sized(a.env, p.NVars())
	if a.reuse == nil {
		clear(a.env)
	}
	a.work = sized(a.work, n)
	a.pending = sized(a.pending, len(s.pending))
	a.tasks = sized(a.tasks, n)
	a.bufs = sized(a.bufs, n)
	a.outCols = sized(a.outCols, n)
	a.argViews = sized(a.argViews, n)
	if len(a.groupBufs) < len(s.groups) {
		a.groupBufs = make([][]int64, len(s.groups))
	}
	a.groupRuns = sized(a.groupRuns, len(s.groups))
	if len(a.scratch) == 0 {
		a.scratch = make([]evalScratch, 1)
	}
	for i := range a.groupRuns {
		gr := &a.groupRuns[i]
		gr.bld, gr.dict = nil, nil
		gr.offs = gr.offs[:0]
		gr.written = gr.written[:0]
		gr.total = 0
	}
}

// remapTo moves an idle parent arena under the child schedule built for
// mutation p of the parent's plan: matched instructions keep their settled
// kernel output buffers (moved index-for-index through the diff), a child
// group takes the shared exchange buffer of the parent group whose pack it
// matched, and whatever the mutation orphaned is filed into the engine
// recycler. Only dead intermediate state moves — result-reachable values were
// never arena-backed in the first place (escape analysis). Which buffer a
// kernel writes into changes no Work; a reusable instruction (reusable) also
// keeps the parent run's value, by VarID, and its Work, by instruction. No
// other value reaches the child's first run.
func (a *jobArena) remapTo(child, parent *planSchedule, rec *bufRecycler, p *plan.Plan, d *plan.Diff) {
	a.reuse = nil
	if a.valsOf != nil {
		a.reuse = child.reusable(parent, p, d)
	}
	if a.reuse != nil { // else the child's prepare clears env
		env := make([]Value, p.NVars())
		work := make([]algebra.Work, len(d.ParentOf))
		for ci, ok := range a.reuse {
			if ok {
				work[ci] = a.work[d.ParentOf[ci]]
				for _, r := range p.Instrs[ci].Rets {
					env[r] = a.env[r] // a match keeps VarIDs
				}
			}
		}
		a.env, a.work = env, work
	}
	bufs := make([][2][]int64, len(d.ParentOf))
	outCols := make([]outColCache, len(d.ParentOf))
	argViews := make([][2]argViewCache, len(d.ParentOf))
	groupBufs := make([][]int64, len(child.groups))
	for ci, pi := range d.ParentOf {
		if pi < 0 {
			continue
		}
		bufs[ci] = a.bufs[pi]
		a.bufs[pi] = [2][]int64{}
		// Matched instructions keep their memoized column wrappers too: a
		// match means identical op/args/part over identical inputs, so the
		// wrappers hit on the child's first run.
		outCols[ci] = a.outCols[pi]
		argViews[ci] = a.argViews[pi]
		// A group that became result-reachable must allocate fresh; its
		// inherited buffer is better off in the pool.
		if gi := child.packGroup[ci]; gi >= 0 && child.groups[gi].recycle {
			if pgi := parent.packGroup[pi]; pgi >= 0 {
				groupBufs[gi] = a.groupBufs[pgi]
				a.groupBufs[pgi] = nil
			}
		}
	}
	for i := range a.bufs {
		rec.putSlots(&a.bufs[i])
	}
	for _, buf := range a.groupBufs {
		if buf != nil {
			rec.putBuf(buf)
		}
	}
	a.bufs, a.outCols, a.argViews, a.groupBufs = bufs, outCols, argViews, groupBufs
}

// reusable is the reuse rule, decided once at adoption: child instruction ci
// takes its parent instruction's last value and Work instead of running its
// kernel when the diff matched it (same value over the same inputs) and the
// value stays where it lived:
//   - the same output-buffer class, so a value never starts escaping from an
//     arena slot;
//   - the same buildsInner bits, so an inner's index and its charge match;
//   - a pack group's clones and pack only all together, mapped onto one
//     parent group with the same recycle flag (a window lives in the group's
//     shared buffer, which remapTo files into the pool unless the groups
//     match), and a non-member only when its parent was none either.
//
// Result markers (they set j.results), binds and consts always run. nil when
// nothing qualifies. The run-level conditions — the same catalog, no
// CopyExchange on either side, a parent run that evaluated without error —
// are valsOf's, checked in remapTo and prepare.
func (s *planSchedule) reusable(parent *planSchedule, p *plan.Plan, d *plan.Diff) []bool {
	reuse := make([]bool, len(d.ParentOf))
	for ci, pi := range d.ParentOf {
		if pi < 0 {
			continue
		}
		switch p.Instrs[ci].Op {
		case plan.OpResult, plan.OpBind, plan.OpConst:
			continue
		}
		reuse[ci] = s.outBuf[ci] == parent.outBuf[pi] && s.buildsInner[ci] == parent.buildsInner[pi] &&
			s.inGroup(int32(ci)) == parent.inGroup(pi)
	}
	for gi := range s.groups {
		g := &s.groups[gi]
		whole := reuse[g.pack] && s.sameGroup(g, parent, d)
		for _, c := range g.clones {
			whole = whole && reuse[c]
		}
		if !whole {
			reuse[g.pack] = false
			for _, c := range g.clones {
				reuse[c] = false
			}
		}
	}
	if !slices.Contains(reuse, true) {
		return nil
	}
	return reuse
}

// inGroup reports whether instruction i is a pack group's clone or pack.
func (s *planSchedule) inGroup(i int32) bool { return s.cloneOf[i] >= 0 || s.packGroup[i] >= 0 }

// sameGroup reports whether g's pack is matched to a parent group's pack with
// the same recycle flag and g's clones, in order, to that group's clones.
func (s *planSchedule) sameGroup(g *schedGroup, parent *planSchedule, d *plan.Diff) bool {
	pg := parent.packGroup[d.ParentOf[g.pack]]
	if pg < 0 {
		return false
	}
	pgr := &parent.groups[pg]
	return pgr.recycle == g.recycle && slices.EqualFunc(g.clones, pgr.clones, func(c, pc int32) bool {
		return d.ParentOf[c] == pc
	})
}

// release hands the arena back to the schedule. It keeps env and work (see
// jobArena) and drops the references nothing reads again: the task slab's
// job pointers, the run's, and the workers' argument scratch.
func (a *jobArena) release(s *planSchedule) {
	for i := range a.tasks {
		// j keeps the dead PlanJob (and through it the run's results and
		// profile) reachable for as long as the schedule stays cached.
		a.tasks[i] = instrTask{}
	}
	a.run.j, a.run.reuse, a.run.err = nil, nil, nil
	for i := range a.scratch {
		a.scratch[i].drop()
	}
	s.putArena(a)
}

// Machine exposes the simulated machine (for workload drivers that inject
// background load or need the virtual clock).
func (e *Engine) Machine() *sim.Machine { return e.mach }

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *storage.Catalog { return e.cat }

// Params returns the engine's cost parameters.
func (e *Engine) Params() cost.Params { return e.params }

// PlanJob is one plan execution: evaluated when it is submitted, in flight on
// the machine until Done.
type PlanJob struct {
	Plan    *plan.Plan
	Profile *Profile
	Done    bool
	// OnDone, when set, fires at virtual completion time.
	OnDone func(*PlanJob)

	eng          *Engine
	cat          *storage.Catalog // bind-resolution catalog (tenant override or engine default)
	sched        *planSchedule
	arena        *jobArena
	simJob       *sim.Job
	env          []Value
	pending      []int32 // unresolved producer count per schedule node
	results      []Value
	maxCores     int
	completed    int
	copyExchange bool
}

// JobOptions configures a plan submission.
type JobOptions struct {
	// MaxCores caps the job's simultaneous operator executions (admission
	// control, §4.2.4); 0 = unlimited.
	MaxCores int
	// CopyExchange forces exchange unions to materialize concatenated
	// copies (the seed behavior) even where a zero-copy pack group is
	// planned. Equivalence tests and A/B benchmarks use it; production
	// paths leave it false and get the shared-buffer exchange.
	CopyExchange bool
	// DerivedFrom names the plan this submission's plan was mutated from
	// (adaptive sessions set it on every exploration step). When that plan's
	// compilation is cached with an idle arena, this plan's first run starts
	// from the parent's settled buffers instead of the pool's, and takes the
	// parent run's value and Work for every reusable instruction instead of
	// running its kernel; its compilation, results and everything it is
	// measured by are the same either way. Ignored when the plan's own
	// compilation is already cached.
	DerivedFrom *plan.Plan
	// Catalog, when non-nil, resolves this job's binds against a different
	// dataset than the engine's own — the multi-tenant serving path: one
	// engine (one simulated machine, one schedule cache, one buffer
	// recycler) executes plans over many independently-named catalogs.
	// Everything except bind resolution is tenant-agnostic: plan objects
	// are per-tenant (fingerprints incorporate the dataset identity), so the
	// schedule cache never mixes tenants, and recycled buffers carry no data
	// ownership — they are fully rewritten or appended from :0 by the next
	// job regardless of which catalog it reads.
	Catalog *storage.Catalog
}

// AdmissionMaxCores is the admission-control scheme the paper describes for
// its comparator system (§4.2.4: "resources are allocated based on the number
// of connected clients and the system load. During a heavy concurrent
// workload the first client's query gets all the resources, while the queries
// from the remaining clients get less resources") and the serving daemon
// applies per shard. It computes JobOptions.MaxCores: the first active client
// keeps the full machine; later clients share what remains, degrading toward
// serial execution as the client count grows.
func AdmissionMaxCores(clientIndex, activeClients, cores int) int {
	if clientIndex == 0 || activeClients <= 1 {
		return cores
	}
	return max(cores/activeClients, 1)
}

// Submit evaluates p's whole schedule in its compiled order, then submits its
// accounting to the machine starting at the current virtual time. Call
// Engine.Run (or Machine().Run()) to drive the simulation. The plan's
// validation, dependency graph, evaluation order and buffer plan are cached
// per plan object, so repeated submissions of a cached plan (the converged
// serving path) reuse the previous invocation's arena buffers. An evaluation
// error fails the submission before any task reaches the machine.
func (e *Engine) Submit(p *plan.Plan, opts JobOptions) (*PlanJob, error) {
	j, err := e.evaluated(p, opts)
	if err != nil {
		return nil, err
	}
	j.simulate()
	return j, nil
}

// evaluated is newJob followed by evaluateAll.
func (e *Engine) evaluated(p *plan.Plan, opts JobOptions) (*PlanJob, error) {
	j, err := e.newJob(p, opts)
	if err != nil {
		return nil, err
	}
	if err := j.evaluateAll(); err != nil {
		return nil, err
	}
	return j, nil
}

// newJob compiles p (or finds its cached compilation), checks an arena out
// and binds the job's catalog; nothing is evaluated or submitted yet.
func (e *Engine) newJob(p *plan.Plan, opts JobOptions) (*PlanJob, error) {
	sched, err := e.scheduleFor(p, opts)
	if err != nil {
		return nil, err
	}
	a := sched.takeArena()
	if a == nil {
		// First invocation of this plan object: check a retired arena shell
		// out of the engine recycler instead of growing everything from nil.
		a = e.recycler.getShell()
	}
	cat := e.cat
	if opts.Catalog != nil {
		cat = opts.Catalog
	}
	a.prepare(sched, p, cat, opts.CopyExchange)
	return &PlanJob{
		Plan:         p,
		eng:          e,
		cat:          cat,
		sched:        sched,
		arena:        a,
		env:          a.env,
		pending:      a.pending,
		maxCores:     opts.MaxCores,
		copyExchange: opts.CopyExchange,
	}, nil
}

// evaluateAll is the first pass of a run: every instruction, claimed in the
// schedule's compiled order, computes its results into env and leaves its
// Work in the arena — except, on an adopted arena's first run, the ones
// remapTo marked reusable, whose parent-run value and Work are already there.
// The calling goroutine owns the run; when the plan passes the helper's gates
// (helper.go), helpers claim instructions beside it from the same cursor, and
// evaluateAll returns only after every one of them has left the run. The
// evaluation length it measures is theirs and the owner's summed. On an error
// — on any worker, which stops the others — the arena goes back to the
// schedule, once, keeping nothing a child may reuse; nothing has reached the
// machine.
func (j *PlanJob) evaluateAll() error {
	a := j.arena
	r := &a.run
	pool := evalHelpers
	r.begin(j, pool)
	a.reuse = nil
	pool.busy.Add(1)
	offered := pool.offer(r)
	r.work(0)
	if offered > 0 {
		pool.retract(r)
	}
	pool.busy.Add(-1)
	j.sched.evalNs.Store(r.evalNs.Load())
	j.eng.reusedInstrs.Add(r.reused.Load())
	if r.helped.Load() > 0 {
		j.eng.helpedRuns.Add(1)
	}
	if err := r.err; err != nil {
		a.release(j.sched)
		j.arena = nil
		return err
	}
	if !j.copyExchange {
		a.valsOf = j.cat
	}
	return nil
}

// evalRun is one evaluateAll: the cursor its workers claim instructions from,
// what they report back, and the lock and condition a worker parks on when a
// wait outlives its spin (wait, in helper.go). It lives in the arena. The
// owner writes its plain fields before it offers the run (share) and reads err
// once every helper has left; everything else the workers share is atomic or
// guarded by mu.
type evalRun struct {
	j         *PlanJob
	reuse     []bool
	pool      *helperPool
	shared    bool   // helpers may join: a claim waits on its producers' done flags
	offeredTo uint64 // bit k: offered to helper k (helperPool.retract)
	offeredNs int64
	err       error // the first failure's, set by the worker that stopped the run

	next     atomic.Int32 // the next position of sched.order to claim
	stop     atomic.Bool
	slots    atomic.Int32 // scratch slots handed to helpers; the owner's is 0
	left     atomic.Int32 // helpers that took the offer and have left
	sleepers atomic.Int32 // workers parked, or about to park, on cond
	evalNs   atomic.Int64 // time the workers spent evaluating, waits excluded
	reused   atomic.Int64
	helped   atomic.Int64 // instructions helpers evaluated

	mu   sync.Mutex
	cond sync.Cond // on mu
}

// begin resets r for a run of j on pool's helpers.
func (r *evalRun) begin(j *PlanJob, pool *helperPool) {
	*r = evalRun{j: j, reuse: j.arena.reuse, pool: pool}
	r.cond.L = &r.mu
}

// share readies r for helpers before the owner first offers it: the
// schedule's producer lists, cleared done flags, and scratch for the owner and
// up to slots−1 helpers.
func (r *evalRun) share(slots int) {
	a, s := r.j.arena, r.j.sched
	s.producers()
	a.done = sized(a.done, len(s.cloneOf))
	clear(a.done)
	for len(a.scratch) < slots {
		a.scratch = append(a.scratch, evalScratch{})
	}
	r.shared = true
	r.offeredNs = monoNs()
}

// work is the claim loop every worker of the run executes with its own scratch
// slot: claim the next instruction in compiled order, wait until its producers
// are done (only while helpers share the run), evaluate it or take its reused
// value, flag it done. It returns when the order is exhausted or a worker
// failed.
func (r *evalRun) work(slot int) {
	j := r.j
	a, order := j.arena, j.sched.order
	sc := &a.scratch[slot]
	start := monoNs()
	var waited, evaluated int64
	for !r.stop.Load() {
		k := int(r.next.Add(1)) - 1
		if k >= len(order) {
			break
		}
		i := order[k]
		if r.shared {
			w, ok := r.await(i)
			waited += w
			if !ok {
				break
			}
		}
		if r.reuse != nil && r.reuse[i] {
			r.reused.Add(1)
		} else {
			w, err := j.evaluate(int(i), sc)
			if err != nil {
				r.fail(err)
				break
			}
			a.work[i] = w
			evaluated++
		}
		if r.shared {
			a.done[i].Store(true)
			r.wake()
		}
	}
	r.evalNs.Add(monoNs() - start - waited)
	if waited > 0 {
		r.pool.waitNs.Add(waited)
	}
	if slot > 0 {
		r.helped.Add(evaluated)
	}
}

// fail stops the run on err — the first failure's err is the one kept — and
// wakes the workers parked on it.
func (r *evalRun) fail(err error) {
	if r.stop.CompareAndSwap(false, true) {
		r.err = err
	}
	r.wake()
}

// await waits until every producer of instruction i is done, and returns how
// long it waited; false when another worker stopped the run meanwhile.
func (r *evalRun) await(i int32) (int64, bool) {
	done := r.j.arena.done
	var waited int64
	for _, u := range r.j.sched.prods[i] {
		waited += r.wait(func() bool { return done[u].Load() || r.stop.Load() })
		if !done[u].Load() {
			return waited, false
		}
	}
	return waited, true
}

// simulate is the second pass: it feeds the recorded Work to the event core,
// roots first; each task's completion releases the nodes waiting on it.
func (j *PlanJob) simulate() {
	m := j.eng.mach
	j.eng.simulatedRuns.Add(1)
	j.Profile = &Profile{StartNs: m.Now(), Machine: m.Config(), Ops: make([]OpExec, 0, len(j.Plan.Instrs))}
	j.simJob = m.NewJob(j.maxCores)
	copy(j.pending, j.sched.pending)
	for _, i := range j.sched.roots {
		j.account(int(i))
	}
}

// instrTask carries one accounted instruction through the simulator: the sim
// task and the profiling state, in a single slab entry of the job's arena (it
// implements sim.TaskHooks, so no per-task closures). It holds no values:
// evaluateAll has already published every result into env.
type instrTask struct {
	sim.Task
	j       *PlanJob
	idx     int32
	core    int32
	startNs float64
}

// TaskStarted implements sim.TaskHooks.
func (it *instrTask) TaskStarted(now float64, core int) {
	it.startNs = now
	it.core = int32(core)
}

// TaskCompleted implements sim.TaskHooks: the op is profiled and the nodes
// waiting on it are released. The dependency bookkeeping (pending / waiters)
// lives here and in release, with virtual completion: an instruction is
// accounted only after every producer it waits on has virtually completed.
func (it *instrTask) TaskCompleted(now float64, core int) {
	j := it.j
	idx := int(it.idx)
	j.Profile.Ops = append(j.Profile.Ops, OpExec{
		Instr: idx, Op: j.Plan.Instrs[idx].Op, StartNs: it.startNs, EndNs: now, Core: int(it.core), Work: j.arena.work[idx],
	})
	for _, dep := range j.sched.waiters[idx] {
		j.release(dep)
	}
	j.completed++
	if j.completed == len(j.Plan.Instrs) {
		j.Profile.EndNs = now
		j.Done = true
		if j.OnDone != nil {
			j.OnDone(j)
			j.OnDone = nil
		}
		a := j.arena
		j.arena = nil
		a.release(j.sched)
	}
}

// release counts one completed producer off schedule node i. When it was the
// last, an instruction is accounted, and a gate opens: it releases its
// group's clones in turn.
func (j *PlanJob) release(i int32) {
	if j.pending[i]--; j.pending[i] != 0 {
		return
	}
	if int(i) < len(j.Plan.Instrs) {
		j.account(int(i))
		return
	}
	for _, c := range j.sched.waiters[i] {
		j.release(c)
	}
}

// account advances virtual time for instruction idx: it prices the Work its
// evaluation recorded, picks the home socket and submits the sim task whose
// completion releases the instruction's waiters. It never sees a value or a
// kernel.
func (j *PlanJob) account(idx int) {
	in := j.Plan.Instrs[idx]
	est := j.eng.params.ForWork(in.Op, j.arena.work[idx], j.eng.mach.L3SharePerSocket())
	home := 0
	if sockets := j.eng.mach.Config().Sockets; sockets > 1 {
		if !in.Part.IsFull() {
			// Range partitions are spread across sockets by their position
			// in the partitioning, mimicking the memory-mapped round-robin
			// placement the paper observes minimal NUMA effects under [14].
			home = int(uint64(sockets) * in.Part.LoNum / in.Part.Den)
			if home >= sockets {
				home = sockets - 1
			}
		} else {
			// Propagated clones and serial operators: spread round-robin so
			// no single socket's bandwidth serves the whole plan.
			home = idx % sockets
		}
	}
	it := &j.arena.tasks[idx]
	*it = instrTask{j: j, idx: int32(idx)}
	it.Task = sim.Task{
		Label:      in.Op.String(),
		Job:        j.simJob,
		BaseNs:     est.Ns,
		MemFrac:    est.MemFrac,
		Bytes:      est.Bytes,
		HomeSocket: home,
		Hooks:      it,
	}
	j.eng.mach.Submit(&it.Task)
}

// Results returns the values of the plan's result instruction (valid once
// Done).
func (j *PlanJob) Results() []Value { return j.results }

// Run drives the machine until all submitted work drains.
func (e *Engine) Run() { e.mach.Run() }

// Execute runs p from the engine's current virtual time and returns its
// results and profile. It drives the machine only until this plan
// completes, so background jobs (concurrent load) may continue to exist.
func (e *Engine) Execute(p *plan.Plan) ([]Value, *Profile, error) {
	return e.ExecuteOpts(p, JobOptions{})
}

// ExecuteOpts is Execute with per-job options (core budgets from admission
// control, tenant catalogs). A run that meets the replay conditions
// (replay.go) skips the event core: it repeats the plan object's recorded
// timeline from the current virtual time.
func (e *Engine) ExecuteOpts(p *plan.Plan, opts JobOptions) ([]Value, *Profile, error) {
	j, err := e.evaluated(p, opts)
	if err != nil {
		return nil, nil, err
	}
	quiet := !opts.CopyExchange && e.mach.Quiescent()
	if quiet && j.sched.rec.matches(j) {
		j.replay()
		return j.results, j.Profile, nil
	}
	busy := e.mach.BusyNs
	j.simulate()
	e.mach.RunUntil(func() bool { return j.Done })
	if !j.Done {
		return nil, nil, fmt.Errorf("exec: plan did not complete")
	}
	if quiet {
		j.sched.rec = runRecord{prof: j.Profile, maxCores: j.maxCores, busyNs: e.mach.BusyNs - busy}
	}
	return j.results, j.Profile, nil
}
