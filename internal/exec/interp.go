package exec

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/vec"
)

// sliceValue restricts a value to the positional range [lo,hi) — the runtime
// realization of an instruction's Part over its anchor input.
func sliceValue(v Value, lo, hi int) Value {
	switch v.Kind {
	case plan.KindColumn:
		return ColValue(v.Col.View(lo, hi))
	case plan.KindOids:
		return OidsValue(v.Oids[lo:hi])
	}
	panic(fmt.Sprintf("exec: cannot slice %s value", v.Kind))
}

// evalScratch is one worker's argument scratch in the arena: the resolved
// arguments and the variadic kernels' gather buffers. Kernels never retain
// them, so each is valid until the worker's next evaluate call.
type evalScratch struct {
	args     []Value
	oidParts [][]int64
	colParts []*storage.Column
}

// drop drops the references the scratch holds.
func (sc *evalScratch) drop() {
	clear(sc.args)
	clear(sc.oidParts)
	clear(sc.colParts)
}

// resolveArgs returns the instruction's argument values with its Part
// applied to the slice-able anchors. All sliced anchors of one instruction
// share the Part (they are positionally co-aligned by construction). The
// returned slice aliases the worker's scratch (sc). Column views are memoized
// per (instruction, slice-arg position) in the arena: repeated runs of a
// cached plan slice the same source columns at the same bounds, so the view
// objects are reused instead of re-allocated.
func resolveArgs(j *PlanJob, sc *evalScratch, idx int, in *plan.Instr, env []Value) []Value {
	a := j.arena
	if cap(sc.args) < len(in.Args) {
		sc.args = make([]Value, len(in.Args)+8)
	}
	args := sc.args[:len(in.Args)]
	for i, ai := range in.Args {
		args[i] = env[ai]
	}
	if in.Part.IsFull() {
		return args
	}
	for si, ai := range plan.SliceArgs(in.Op) {
		n := args[ai].Len()
		lo, hi := in.Part.Resolve(n)
		if args[ai].Kind == plan.KindColumn && si < 2 {
			vc := &a.argViews[idx][si]
			src := args[ai].Col
			if vc.col == nil || vc.src != src || vc.lo != lo || vc.hi != hi {
				*vc = argViewCache{src: src, lo: lo, hi: hi, col: src.View(lo, hi)}
			}
			args[ai] = ColValue(vc.col)
			continue
		}
		args[ai] = sliceValue(args[ai], lo, hi)
	}
	return args
}

// reseqBase is the head-sequence rule for a partitioned tuple
// reconstruction: a fetch clone over oid-list positions [lo,hi) produces the
// values for those positions, so its head sequence starts at lo. This keeps
// dynamically partitioned intermediates aligned on their conceptual full
// column (§2.3) — selects over them emit global row ids, and packs of
// sibling partitions reassemble the full intermediate exactly.
func reseqBase(in *plan.Instr, anchor Value) int64 {
	if in.Part.IsFull() {
		return 0
	}
	lo, _ := in.Part.Resolve(anchor.Len())
	return int64(lo)
}

// cloneShared resolves the run state of the pack group instruction idx is a
// clone member of (position m), or nil when it writes no shared buffer. The
// group's first clone to get here, on whichever worker, lays the windows out
// and binds the dictionary every clone's output carries (the pack's inputs
// share one, §2.3); the group's lock orders the others after it.
func (j *PlanJob) cloneShared(idx int, dict *vec.Dict) (gr *groupRun, m int) {
	if j.copyExchange {
		return nil, 0
	}
	gi := j.sched.cloneOf[idx]
	if gi < 0 {
		return nil, 0
	}
	gr = &j.arena.groupRuns[gi]
	gr.mu.Lock()
	if gr.bld == nil {
		j.initGroup(gi, gr)
		if dict != nil {
			gr.bld.BindDict(dict)
		}
		gr.dict = dict
	}
	gr.mu.Unlock()
	if dict != gr.dict {
		panic("exec: pack group clones carry different dictionaries")
	}
	return gr, int(j.sched.memberOf[idx])
}

// initGroup lays out the group's windows: clone m's is its anchor's length
// under its own Part, and the windows follow in clone order. For a sliced
// group the Parts tile one shared anchor, so the offsets are exactly the
// Parts' resolved lows; for a propagated group every Part is full. Every
// anchor's producer has virtually completed: each clone waits on its own, and
// on its siblings' through the group's gate (addGate).
func (j *PlanJob) initGroup(gi int32, gr *groupRun) {
	sg := &j.sched.groups[gi]
	members := len(sg.clones)
	offs := append(gr.offs[:0], 0)
	for m, ci := range sg.clones {
		lo, hi := j.Plan.Instrs[ci].Part.Resolve(j.env[sg.anchorVar[m]].Len())
		offs = append(offs, offs[m]+hi-lo)
	}
	gr.offs = offs
	gr.total = offs[members]
	if cap(gr.written) < members {
		gr.written = make([]int, members)
	}
	gr.written = gr.written[:members]
	for m := range gr.written {
		gr.written[m] = -1
	}
	// Non-recycle (result-reachable) groups start from nil every run and may
	// also DRAW from the pool — the checkout permanently transfers ownership
	// out (their buffer is never filed back), so published results cannot
	// alias pooled memory.
	var buf []int64
	if sg.recycle {
		buf = j.arena.groupBufs[gi]
	}
	if buf = j.eng.recycler.grown(buf, gr.total); buf == nil {
		buf = make([]int64, gr.total)
	}
	buf = buf[:gr.total]
	if sg.recycle {
		j.arena.groupBufs[gi] = buf
	}
	gr.bld = vec.NewBuilderOver(buf)
}

// packView returns the group's shared buffer as the pack output when every
// clone wrote its range densely; otherwise the caller concatenates the
// clones' (view) columns exactly like the copying path.
func (j *PlanJob) packView(idx int, args []Value) (*storage.Column, algebra.Work, bool) {
	if j.copyExchange {
		return nil, algebra.Work{}, false
	}
	gi := j.sched.packGroup[idx]
	if gi < 0 {
		return nil, algebra.Work{}, false
	}
	gr := &j.arena.groupRuns[gi]
	for m := range gr.written {
		if gr.written[m] != gr.offs[m+1]-gr.offs[m] {
			return nil, algebra.Work{}, false // boundary drop: fall back to copy
		}
	}
	col, w := algebra.PackColumnsView(args[0].Col, gr.bld.Publish(), int64(gr.total))
	return col, w, true
}

// outDest is where one materializing instruction writes its output: buf is
// the destination, exactly as long as the instruction's anchor input. gr is
// set when buf is clone m's window of its pack group's shared buffer.
type outDest struct {
	buf []int64
	gr  *groupRun
	m   int
}

// dest is the one place that decides who owns instruction idx's n-value
// output, which will carry dict: its pack group's shared buffer when it is a
// group clone; else the instruction's arena slot when planBuffers classed it
// bufCol (a dead intermediate, rewritten in place by the next invocation,
// grown through the engine recycler); else a fresh allocation — a
// result-reachable output, and every clone under CopyExchange.
// The kernel fully overwrites what it reports written, so stale values in a
// recycled buffer can never surface. Values and Work are the same whichever
// owner is chosen.
func (j *PlanJob) dest(idx, n int, dict *vec.Dict) outDest {
	if gr, m := j.cloneShared(idx, dict); gr != nil {
		return outDest{buf: gr.bld.WriteRange(gr.offs[m], gr.offs[m+1]), gr: gr, m: m}
	}
	if j.sched.outBuf[idx][0] != bufCol {
		return outDest{buf: make([]int64, n)}
	}
	buf := j.eng.recycler.grown(j.arena.bufs[idx][0], n)
	if buf == nil {
		buf = make([]int64, n)
	}
	j.arena.bufs[idx][0] = buf
	return outDest{buf: buf[:n]}
}

// done publishes the first n values the kernel wrote into d as instruction
// idx's output column: a view of the group's builder (recording how much of
// the window was written, so the pack knows whether it may be a view; the
// builder's dictionary is dict, bound by cloneShared), the arena slot's
// memoized wrapper, or a plain column over the fresh buffer
// capped at n — a boundary drop must leave no spare capacity reachable from
// an escaping result. name is called only when a wrapper is built.
func (j *PlanJob) done(idx int, d outDest, n int, seq int64, dict *vec.Dict, name func() string) *storage.Column {
	switch {
	case d.gr != nil:
		d.gr.written[d.m] = n
		lo := d.gr.offs[d.m]
		return storage.NewBuilderColumn(name(), seq, d.gr.bld, lo, lo+n)
	case j.sched.outBuf[idx][0] == bufCol:
		return j.cachedCol(idx, seq, d.buf[:n], dict, name)
	}
	return wrapCol(name(), seq, d.buf[:n:n], dict)
}

// oidBufIn / oidBufOut thread the arena's oid buffer for result ret of
// instruction idx through appending kernels (SelectInto and friends), which
// may grow it; the grown slice is stored back so the next invocation reuses
// the final capacity, and oidBufOut returns the vector to publish. hint is
// the slot's initial capacity: on an arena cold start (no buffer yet — the
// mutated-plan path) a buffer of that class is drawn from the engine
// recycler, zero-length — the kernels all append from length 0, so residual
// contents of a pooled buffer are never read — or allocated when the pool has
// none. A warm arena keeps its settled buffer and never touches the pool
// again.
func (j *PlanJob) oidBufIn(idx, ret, hint int) []int64 {
	if j.sched.outBuf[idx][ret] != bufOids {
		return nil
	}
	buf := j.arena.bufs[idx][ret]
	if buf == nil && hint > 0 {
		if buf = j.eng.recycler.grown(nil, hint); buf == nil {
			buf = make([]int64, 0, hint)
		}
		j.arena.bufs[idx][ret] = buf
	}
	return buf
}

func (j *PlanJob) oidBufOut(idx, ret int, out []int64) []int64 {
	if j.sched.outBuf[idx][ret] == bufOids {
		j.arena.bufs[idx][ret] = out
		return out
	}
	return out[:len(out):len(out)] // escaping: no spare capacity, as in done
}

// wrapCol builds the output column of a materializing kernel over vals.
func wrapCol(name string, seq int64, vals []int64, d *vec.Dict) *storage.Column {
	return storage.NewColumn(name, seq, vec.New(vals, d))
}

// cachedCol is wrapCol memoized in the arena per instruction: a cached
// plan's instruction wraps the identical buffer range under the identical
// head sequence every run, so the Column/Vector pair is reused. name is
// built only on a miss (calc names are formatted strings). The hit
// condition is exact slice identity, so recycled buffers cannot alias a
// stale wrapper; names are deterministic per instruction, so they need no
// comparison.
func (j *PlanJob) cachedCol(idx int, seq int64, vals []int64, d *vec.Dict, name func() string) *storage.Column {
	c := &j.arena.outCols[idx]
	if c.col != nil && c.seq == seq && c.dict == d && sameInt64s(c.vals, vals) {
		return c.col
	}
	col := wrapCol(name(), seq, vals, d)
	*c = outColCache{vals: vals, dict: d, seq: seq, col: col}
	return col
}

// evaluate computes instruction idx: it resolves arguments (applying the
// partition range), dispatches to the algebra kernel, publishes the result
// values into env — the one place values live — and returns the Work
// performed. A materializing instruction asks dest where to write, runs its
// one kernel, and hands the written length to done; who owns the buffer is
// decided there and nowhere else. evaluate knows nothing of virtual time: it
// reads the job's catalog, env and arena only, so who calls it, and when
// relative to the machine, is the caller's choice (evaluateAll, before the
// machine sees the job, on whichever worker claimed idx; sc is that worker's
// scratch).
func (j *PlanJob) evaluate(idx int, sc *evalScratch) (algebra.Work, error) {
	in := j.Plan.Instrs[idx]
	cat, env := j.cat, j.env
	args := resolveArgs(j, sc, idx, in, env)
	switch in.Op {
	case plan.OpBind:
		aux := in.Aux.(plan.BindAux)
		t, err := cat.Table(aux.Table)
		if err != nil {
			return algebra.Work{}, err
		}
		c, err := t.Column(aux.Column)
		if err != nil {
			return algebra.Work{}, err
		}
		return j.publish(idx, algebra.Work{}, ColValue(c))

	case plan.OpConst:
		return j.publish(idx, algebra.Work{}, ScalarValue(in.Aux.(plan.ConstAux).Value))

	case plan.OpSelect:
		// Hints mirror the kernels' initial-capacity estimates, so a pooled
		// buffer lands in the same size class a fresh allocation would.
		oids, w := algebra.SelectInto(j.oidBufIn(idx, 0, args[0].Col.Len()/4+1), args[0].Col, in.Aux.(plan.SelectAux).Pred)
		oids = j.oidBufOut(idx, 0, oids)
		return j.publish(idx, w, OidsValue(oids))

	case plan.OpSelectCand:
		oids, w, _ := algebra.SelectWithCandsInto(j.oidBufIn(idx, 0, len(args[1].Oids)/2+1), args[0].Col, in.Aux.(plan.SelectAux).Pred, args[1].Oids)
		oids = j.oidBufOut(idx, 0, oids)
		return j.publish(idx, w, OidsValue(oids))

	case plan.OpLikeSelect:
		aux := in.Aux.(plan.LikeAux)
		oids, w := algebra.SelectLikeInto(j.oidBufIn(idx, 0, args[0].Col.Len()/8+1), args[0].Col, aux.Pattern, aux.Kind, aux.Anti)
		oids = j.oidBufOut(idx, 0, oids)
		return j.publish(idx, w, OidsValue(oids))

	case plan.OpFetch:
		oids, target := args[0].Oids, args[1].Col
		d := j.dest(idx, len(oids), target.Dict())
		n, w, _ := algebra.FetchInto(d.buf, oids, target)
		col := j.done(idx, d, n, reseqBase(in, env[in.Args[0]]), target.Dict(), target.Name)
		return j.publish(idx, w, ColValue(col))

	case plan.OpFetchPos:
		pos, src := args[0].Oids, args[1].Col
		d := j.dest(idx, len(pos), src.Dict())
		w := algebra.FetchPositionsInto(d.buf, pos, src)
		col := j.done(idx, d, len(pos), reseqBase(in, env[in.Args[0]]), src.Dict(), src.Name)
		return j.publish(idx, w, ColValue(col))

	case plan.OpJoin:
		// Each side is owned on its own: one may reach the result (fresh every
		// run, sized by the kernel) while the other is a dead intermediate in
		// its arena slot. A slot starts well below the kernel's len(outer): the
		// filter usually sits on the inner side, and every clone's slot would
		// retain a buffer sized for its outer nearly empty. The first run's
		// doubling settles it within twice the matches.
		outer, inner := args[0].Col, args[1].Col
		hint := outer.Len()/16 + 1
		lo, ro, w := algebra.HashJoinInto(j.oidBufIn(idx, 0, hint), j.oidBufIn(idx, 1, hint), outer, inner)
		lo, ro = j.oidBufOut(idx, 0, lo), j.oidBufOut(idx, 1, ro)
		return j.publish(idx, w, OidsValue(lo), OidsValue(ro))

	case plan.OpCalcVV:
		// A calc is positionally aligned with its inputs, so its output
		// inherits the view's head sequence: a partitioned calc over a column
		// slice stays aligned on the base column (§2.3).
		op := in.Aux.(plan.CalcAux).Op
		a, b := args[0].Col, args[1].Col
		d := j.dest(idx, a.Len(), nil)
		w := algebra.CalcVVInto(d.buf, op, a, b)
		col := j.done(idx, d, a.Len(), a.Seq(), nil, func() string {
			return fmt.Sprintf("(%s%s%s)", a.Name(), op, b.Name())
		})
		return j.publish(idx, w, ColValue(col))

	case plan.OpCalcSV, plan.OpCalcSSV:
		// The scalar operand is a plan constant (SV) or a runtime value (SSV).
		aux := in.Aux.(plan.CalcAux)
		scalar, v := aux.Scalar, args[0].Col
		if in.Op == plan.OpCalcSSV {
			scalar, v = args[0].Scalar, args[1].Col
		}
		d := j.dest(idx, v.Len(), nil)
		w := algebra.CalcSVInto(d.buf, aux.Op, scalar, v, aux.ScalarLeft)
		col := j.done(idx, d, v.Len(), v.Seq(), nil, func() string {
			return fmt.Sprintf("(calc%s%s)", aux.Op, v.Name())
		})
		return j.publish(idx, w, ColValue(col))

	case plan.OpCalcSS:
		aux := in.Aux.(plan.CalcAux)
		var out int64
		switch aux.Op {
		case algebra.CalcAdd:
			out = args[0].Scalar + args[1].Scalar
		case algebra.CalcSub:
			out = args[0].Scalar - args[1].Scalar
		case algebra.CalcMul:
			out = args[0].Scalar * args[1].Scalar
		case algebra.CalcDiv:
			if args[1].Scalar == 0 {
				out = 0
			} else {
				out = args[0].Scalar / args[1].Scalar
			}
		}
		return j.publish(idx, algebra.Work{TuplesIn: 2, TuplesOut: 1}, ScalarValue(out))

	case plan.OpGroupBy:
		g, w := algebra.GroupBy(args[0].Col)
		return j.publish(idx, w, GroupsValue(g))

	case plan.OpGroupKeys:
		g := args[0].Groups
		w := algebra.Work{BytesSeqRead: g.Keys.Bytes(), TuplesIn: int64(g.NGroups()), TuplesOut: int64(g.NGroups())}
		return j.publish(idx, w, ColValue(g.Keys))

	case plan.OpAggrGrouped:
		col, w := algebra.AggrGrouped(in.Aux.(plan.AggrAux).Func, args[0].Col, args[1].Groups)
		return j.publish(idx, w, ColValue(col))

	case plan.OpAggr:
		s, w := algebra.Aggr(in.Aux.(plan.AggrAux).Func, args[0].Col)
		return j.publish(idx, w, ScalarValue(s))

	case plan.OpMergeAggr:
		s, w := algebra.MergeScalars(in.Aux.(plan.AggrAux).Func, args[0].Col)
		return j.publish(idx, w, ScalarValue(s))

	case plan.OpGroupMerge:
		keys, aggs, w := algebra.GroupMerge(in.Aux.(plan.AggrAux).Func, args[0].Col, args[1].Col)
		return j.publish(idx, w, ColValue(keys), ColValue(aggs))

	case plan.OpPack:
		return j.evalPack(idx, in, args, sc)

	case plan.OpSort:
		sorted, perm, w := algebra.Sort(args[0].Col, in.Aux.(plan.SortAux).Desc)
		return j.publish(idx, w, ColValue(sorted), OidsValue(perm))

	case plan.OpMergeSorted:
		cols := sc.colPartsOf(len(args))
		for i, a := range args {
			cols[i] = a.Col
		}
		merged, w := algebra.MergeSortedRuns(cols, in.Aux.(plan.SortAux).Desc)
		return j.publish(idx, w, ColValue(merged))

	case plan.OpResult:
		j.results = make([]Value, len(in.Args))
		copy(j.results, args)
		return algebra.Work{}, nil
	}
	return algebra.Work{}, fmt.Errorf("exec: unknown opcode %s", in.Op)
}

// publish stores instruction idx's result values into env — the only writer
// of the job's value store — and returns its Work. A result some join reads as
// its inner (schedule.buildsInner) gets a fresh hash index here, every run,
// and the build is charged to this instruction: an intermediate's index lives
// for one run, so no join's Work depends on which clone probes first or on
// how often the plan object ran before.
func (j *PlanJob) publish(idx int, w algebra.Work, vals ...Value) (algebra.Work, error) {
	for k, r := range j.Plan.Instrs[idx].Rets {
		j.env[r] = vals[k]
		if j.sched.buildsInner[idx]>>k&1 != 0 {
			w.Add(algebra.BuildHash(vals[k].Col))
		}
	}
	return w, nil
}

// colPartsOf / oidPartsOf return the worker's variadic-argument gather
// buffers (kernels never retain them).
func (sc *evalScratch) colPartsOf(n int) []*storage.Column {
	if cap(sc.colParts) < n {
		sc.colParts = make([]*storage.Column, n)
	}
	return sc.colParts[:n]
}

func (sc *evalScratch) oidPartsOf(n int) [][]int64 {
	if cap(sc.oidParts) < n {
		sc.oidParts = make([][]int64, n)
	}
	return sc.oidParts[:n]
}

func (j *PlanJob) evalPack(idx int, in *plan.Instr, args []Value, sc *evalScratch) (algebra.Work, error) {
	switch args[0].Kind {
	case plan.KindOids:
		parts := sc.oidPartsOf(len(args))
		total := 0
		for i, a := range args {
			parts[i] = a.Oids
			total += len(a.Oids)
		}
		out, w := algebra.PackOidsInto(j.oidBufIn(idx, 0, total), parts)
		out = j.oidBufOut(idx, 0, out)
		return j.publish(idx, w, OidsValue(out))
	case plan.KindColumn:
		if col, w, ok := j.packView(idx, args); ok {
			return j.publish(idx, w, ColValue(col))
		}
		cols := sc.colPartsOf(len(args))
		for i, a := range args {
			cols[i] = a.Col
		}
		out, w := algebra.PackColumns(cols)
		return j.publish(idx, w, ColValue(out))
	case plan.KindScalar:
		// The gathered slice is owned by this instruction (arena slot or
		// fresh; a pack is never a group clone), so the pack aliases it.
		partials := j.dest(idx, len(args), nil).buf
		for i, a := range args {
			partials[i] = a.Scalar
		}
		out, w := algebra.PackScalarsOwned("partials", partials)
		return j.publish(idx, w, ColValue(out))
	}
	return algebra.Work{}, fmt.Errorf("exec: pack over %s", args[0].Kind)
}
