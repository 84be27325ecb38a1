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

// resolveArgs returns the instruction's argument values with its Part
// applied to the slice-able anchors. All sliced anchors of one instruction
// share the Part (they are positionally co-aligned by construction). The
// returned slice aliases the job's arena scratch: it is valid only until
// the next evalInstr call, which is fine because kernels never retain it.
// Column views are memoized per (instruction, slice-arg position) in the
// arena: repeated runs of a cached plan slice the same source columns at the
// same bounds, so the view objects are reused instead of re-allocated.
func resolveArgs(j *PlanJob, idx int, in *plan.Instr, env []Value) []Value {
	a := j.arena
	if cap(a.args) < len(in.Args) {
		a.args = make([]Value, len(in.Args)+8)
	}
	args := a.args[:len(in.Args)]
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

// reseqPartitioned aligns a partitioned tuple-reconstruction output with its
// position space: a fetch clone over oid-list positions [lo,hi) produces the
// values for those positions, so its head sequence starts at lo. This keeps
// dynamically partitioned intermediates aligned on their conceptual full
// column (§2.3) — selects over them emit global row ids, and packs of
// sibling partitions reassemble the full intermediate exactly.
func reseqPartitioned(col *storage.Column, in *plan.Instr, anchor Value) *storage.Column {
	if in.Part.IsFull() {
		return col
	}
	lo, _ := in.Part.Resolve(anchor.Len())
	return storage.NewColumn(col.Name(), int64(lo), col.Data())
}

// reseqBase returns the head sequence reseqPartitioned would assign, without
// building an intermediate column — the shared-buffer clone path constructs
// its view column directly.
func reseqBase(in *plan.Instr, anchor Value) int64 {
	if in.Part.IsFull() {
		return 0
	}
	lo, _ := in.Part.Resolve(anchor.Len())
	return int64(lo)
}

// cloneShared resolves the shared write window for instruction idx when it
// is a clone member of an active pack group. On first use per run it sizes
// the group's shared buffer: sliced groups resolve their Parts against the
// common anchor, propagated groups take prefix sums of the sibling anchors'
// lengths (possible only once every anchor's producer has evaluated —
// otherwise the group is disabled for this run and every member
// materializes privately, which the pack then concatenates as before).
func (j *PlanJob) cloneShared(idx int) (gr *groupRun, m, lo, hi int, ok bool) {
	if j.copyExchange {
		return nil, 0, 0, 0, false
	}
	gi := j.sched.cloneOf[idx]
	if gi < 0 {
		return nil, 0, 0, 0, false
	}
	gr = &j.arena.groupRuns[gi]
	if gr.bld == nil && !gr.disabled {
		j.initGroup(gi, gr)
	}
	if gr.disabled {
		return nil, 0, 0, 0, false
	}
	m = int(j.sched.memberOf[idx])
	return gr, m, gr.offs[m], gr.offs[m+1], true
}

func (j *PlanJob) initGroup(gi int32, gr *groupRun) {
	sg := &j.sched.groups[gi]
	members := len(sg.clones)
	offs := gr.offs[:0]
	if sg.sliced {
		// All clones share the anchor variable; it is an argument of every
		// clone, so its producer has virtually completed and env holds it.
		n := j.env[sg.anchorVar[0]].Len()
		for m := 0; m < members; m++ {
			lo, _ := sg.parts[m].Resolve(n)
			offs = append(offs, lo)
		}
		offs = append(offs, n)
	} else {
		total := 0
		for m := 0; m < members; m++ {
			pr := sg.anchorProducer[m]
			if pr < 0 || !j.arena.evald[pr] {
				gr.disabled = true
				return
			}
			offs = append(offs, total)
			// The anchor may be evaluated but not yet virtually complete;
			// its value then lives in the producer's task slab, not env.
			total += j.arena.tasks[pr].retv[sg.anchorRet[m]].Len()
		}
		offs = append(offs, total)
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
	var buf []int64
	if sg.recycle {
		buf = j.arena.groupBufs[gi]
	}
	if cap(buf) < gr.total {
		// The outgrown buffer backs only dead intermediates of a previous
		// invocation; file it for another plan before drawing a larger one
		// from the engine pool. Non-recycle (result-reachable) groups may
		// also DRAW from the pool — the checkout permanently transfers
		// ownership out (their buffer is never filed back), so published
		// results cannot alias pooled memory.
		if buf != nil {
			j.eng.recycler.putBuf(buf)
		}
		if got := j.eng.recycler.getBuf(gr.total); got != nil {
			buf = got
		} else {
			buf = make([]int64, gr.total)
		}
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
	if gr.bld == nil || gr.disabled {
		return nil, algebra.Work{}, false
	}
	for m := range gr.written {
		if gr.written[m] != gr.offs[m+1]-gr.offs[m] {
			return nil, algebra.Work{}, false // boundary drop: fall back to copy
		}
	}
	col, w := algebra.PackColumnsView(args[0].Col.Name(), gr.bld.Publish(), int64(gr.total))
	return col, w, true
}

// colBuf returns the arena-recycled output buffer for instruction idx sized
// to n values, or nil when the instruction's output must be freshly
// allocated (it escapes as a query result, or no buffer was planned). Growth
// goes through the engine's size-classed recycler: the outgrown buffer
// (backing only dead intermediates of a previous invocation) is filed for
// other plans, the replacement is drawn from the pool when one fits. The
// pool hands buffers back zero-length; the kernel overwrites [0,n) fully, so
// no stale values from a previous query can surface.
func (j *PlanJob) colBuf(idx, n int) []int64 {
	if j.sched.outBuf[idx] != bufCol {
		return nil
	}
	buf := j.arena.bufs[idx]
	if cap(buf) < n {
		if buf != nil {
			j.eng.recycler.putBuf(buf)
		}
		if got := j.eng.recycler.getBuf(n); got != nil {
			buf = got[:n]
		} else {
			buf = make([]int64, n)
		}
		j.arena.bufs[idx] = buf
	}
	return buf[:n]
}

// oidBufIn / oidBufOut thread the arena's oid buffer through appending
// kernels (SelectInto and friends), which may grow it; the grown slice is
// stored back so the next invocation reuses the final capacity. hint is the
// kernel's own initial-capacity estimate: on an arena cold start (no buffer
// yet — the mutated-plan path) a buffer of that class is drawn from the
// engine recycler, zero-length — the kernels all append from length 0, so
// residual contents of a pooled buffer are never read. A warm arena keeps
// its settled buffer and never touches the pool again.
func (j *PlanJob) oidBufIn(idx, hint int) []int64 {
	if j.sched.outBuf[idx] != bufOids {
		return nil
	}
	buf := j.arena.bufs[idx]
	if buf == nil && hint > 0 {
		if got := j.eng.recycler.getBuf(hint); got != nil {
			buf = got
			j.arena.bufs[idx] = buf
		}
	}
	return buf
}

func (j *PlanJob) oidBufOut(idx int, out []int64) {
	if j.sched.outBuf[idx] == bufOids {
		j.arena.bufs[idx] = out
	}
}

// wrapCol builds the output column of a materializing kernel over vals.
func wrapCol(name string, seq int64, vals []int64, d *vec.Dict) *storage.Column {
	if d != nil {
		return storage.NewColumn(name, seq, vec.NewDictCoded(vals, d))
	}
	return storage.NewColumn(name, seq, vec.NewInt64(vals))
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

// evalInstr executes one instruction: it resolves arguments (applying the
// partition range), dispatches to the algebra kernel, and returns the result
// values (appended to dst, which aliases the instruction's task slab) plus
// the Work performed. Materializing instructions write into shared exchange
// buffers (pack-group clones), arena-recycled buffers (cached hot path), or
// fresh allocations (results and unplanned shapes) — the values and Work
// are identical in all three cases; only buffer ownership differs.
func evalInstr(j *PlanJob, p *plan.Plan, idx int, in *plan.Instr, dst []Value) ([]Value, algebra.Work, error) {
	cat, env := j.cat, j.env
	args := resolveArgs(j, idx, in, env)
	switch in.Op {
	case plan.OpBind:
		aux := in.Aux.(plan.BindAux)
		t, err := cat.Table(aux.Table)
		if err != nil {
			return nil, algebra.Work{}, err
		}
		c, err := t.Column(aux.Column)
		if err != nil {
			return nil, algebra.Work{}, err
		}
		return append(dst, ColValue(c)), algebra.Work{}, nil

	case plan.OpConst:
		return append(dst, ScalarValue(in.Aux.(plan.ConstAux).Value)), algebra.Work{}, nil

	case plan.OpSelect:
		// Hints mirror the kernels' initial-capacity estimates, so a pooled
		// buffer lands in the same size class a fresh allocation would.
		oids, w := algebra.SelectInto(j.oidBufIn(idx, args[0].Col.Len()/4+1), args[0].Col, in.Aux.(plan.SelectAux).Pred)
		j.oidBufOut(idx, oids)
		return append(dst, OidsValue(oids)), w, nil

	case plan.OpSelectCand:
		oids, w, _ := algebra.SelectWithCandsInto(j.oidBufIn(idx, len(args[1].Oids)/2+1), args[0].Col, in.Aux.(plan.SelectAux).Pred, args[1].Oids)
		j.oidBufOut(idx, oids)
		return append(dst, OidsValue(oids)), w, nil

	case plan.OpLikeSelect:
		aux := in.Aux.(plan.LikeAux)
		oids, w := algebra.SelectLikeInto(j.oidBufIn(idx, args[0].Col.Len()/8+1), args[0].Col, aux.Pattern, aux.Kind, aux.Anti)
		j.oidBufOut(idx, oids)
		return append(dst, OidsValue(oids)), w, nil

	case plan.OpFetch:
		target := args[1].Col
		if gr, m, lo, hi, ok := j.cloneShared(idx); ok {
			n, w, _ := algebra.FetchInto(gr.bld.WriteRange(lo, hi), args[0].Oids, target)
			if d := target.Dict(); d != nil {
				gr.bld.BindDict(d)
			}
			gr.written[m] = n
			col := storage.NewBuilderColumn(target.Name(), reseqBase(in, env[in.Args[0]]), gr.bld, lo, lo+n)
			return append(dst, ColValue(col)), w, nil
		}
		if buf := j.colBuf(idx, len(args[0].Oids)); buf != nil {
			n, w, _ := algebra.FetchInto(buf, args[0].Oids, target)
			col := j.cachedCol(idx, reseqBase(in, env[in.Args[0]]), buf[:n], target.Dict(), target.Name)
			return append(dst, ColValue(col)), w, nil
		}
		col, w, _ := algebra.Fetch(args[0].Oids, target)
		col = reseqPartitioned(col, in, env[in.Args[0]])
		return append(dst, ColValue(col)), w, nil

	case plan.OpFetchPos:
		src := args[1].Col
		if gr, m, lo, hi, ok := j.cloneShared(idx); ok {
			w := algebra.FetchPositionsInto(gr.bld.WriteRange(lo, hi), args[0].Oids, src)
			if d := src.Dict(); d != nil {
				gr.bld.BindDict(d)
			}
			gr.written[m] = hi - lo
			col := storage.NewBuilderColumn(src.Name(), reseqBase(in, env[in.Args[0]]), gr.bld, lo, hi)
			return append(dst, ColValue(col)), w, nil
		}
		if buf := j.colBuf(idx, len(args[0].Oids)); buf != nil {
			w := algebra.FetchPositionsInto(buf, args[0].Oids, src)
			col := j.cachedCol(idx, reseqBase(in, env[in.Args[0]]), buf, src.Dict(), src.Name)
			return append(dst, ColValue(col)), w, nil
		}
		col, w := algebra.FetchPositions(args[0].Oids, src)
		col = reseqPartitioned(col, in, env[in.Args[0]])
		return append(dst, ColValue(col)), w, nil

	case plan.OpJoin:
		lo, ro, w := algebra.HashJoin(args[0].Col, args[1].Col)
		return append(dst, OidsValue(lo), OidsValue(ro)), w, nil

	case plan.OpCalcVV:
		aux := in.Aux.(plan.CalcAux)
		a, b := args[0].Col, args[1].Col
		if gr, m, lo, hi, ok := j.cloneShared(idx); ok {
			w := algebra.CalcVVInto(gr.bld.WriteRange(lo, hi), aux.Op, a, b)
			gr.written[m] = hi - lo
			col := storage.NewBuilderColumn(fmt.Sprintf("(%s%s%s)", a.Name(), aux.Op, b.Name()), a.Seq(), gr.bld, lo, hi)
			return append(dst, ColValue(col)), w, nil
		}
		if buf := j.colBuf(idx, a.Len()); buf != nil {
			w := algebra.CalcVVInto(buf, aux.Op, a, b)
			col := j.cachedCol(idx, a.Seq(), buf, nil, func() string {
				return fmt.Sprintf("(%s%s%s)", a.Name(), aux.Op, b.Name())
			})
			return append(dst, ColValue(col)), w, nil
		}
		col, w := algebra.CalcVV(aux.Op, a, b)
		return append(dst, ColValue(col)), w, nil

	case plan.OpCalcSV:
		aux := in.Aux.(plan.CalcAux)
		col, w := j.evalCalcScalar(idx, in, aux.Op, aux.Scalar, args[0].Col, aux.ScalarLeft)
		return append(dst, ColValue(col)), w, nil

	case plan.OpCalcSSV:
		aux := in.Aux.(plan.CalcAux)
		col, w := j.evalCalcScalar(idx, in, aux.Op, args[0].Scalar, args[1].Col, aux.ScalarLeft)
		return append(dst, ColValue(col)), w, nil

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
		return append(dst, ScalarValue(out)), algebra.Work{TuplesIn: 2, TuplesOut: 1}, nil

	case plan.OpGroupBy:
		g, w := algebra.GroupBy(args[0].Col)
		return append(dst, GroupsValue(g)), w, nil

	case plan.OpGroupKeys:
		g := args[0].Groups
		w := algebra.Work{BytesSeqRead: g.Keys.Bytes(), TuplesIn: int64(g.NGroups()), TuplesOut: int64(g.NGroups())}
		return append(dst, ColValue(g.Keys)), w, nil

	case plan.OpAggrGrouped:
		col, w := algebra.AggrGrouped(in.Aux.(plan.AggrAux).Func, args[0].Col, args[1].Groups)
		return append(dst, ColValue(col)), w, nil

	case plan.OpAggr:
		s, w := algebra.Aggr(in.Aux.(plan.AggrAux).Func, args[0].Col)
		return append(dst, ScalarValue(s)), w, nil

	case plan.OpMergeAggr:
		s, w := algebra.MergeScalars(in.Aux.(plan.AggrAux).Func, args[0].Col)
		return append(dst, ScalarValue(s)), w, nil

	case plan.OpGroupMerge:
		keys, aggs, w := algebra.GroupMerge(in.Aux.(plan.AggrAux).Func, args[0].Col, args[1].Col)
		return append(dst, ColValue(keys), ColValue(aggs)), w, nil

	case plan.OpPack:
		return evalPack(j, idx, in, args, dst)

	case plan.OpSort:
		sorted, perm, w := algebra.Sort(args[0].Col, in.Aux.(plan.SortAux).Desc)
		return append(dst, ColValue(sorted), OidsValue(perm)), w, nil

	case plan.OpMergeSorted:
		cols := j.colPartsScratch(len(args))
		for i, a := range args {
			cols[i] = a.Col
		}
		merged, w := algebra.MergeSortedRuns(cols, in.Aux.(plan.SortAux).Desc)
		return append(dst, ColValue(merged)), w, nil

	case plan.OpResult:
		return dst, algebra.Work{}, nil
	}
	return nil, algebra.Work{}, fmt.Errorf("exec: unknown opcode %s", in.Op)
}

// evalCalcScalar dispatches the scalar-operand calcs (OpCalcSV / OpCalcSSV)
// through the three buffer-ownership paths.
func (j *PlanJob) evalCalcScalar(idx int, in *plan.Instr, op algebra.CalcOp, scalar int64, v *storage.Column, scalarLeft bool) (*storage.Column, algebra.Work) {
	if gr, m, lo, hi, ok := j.cloneShared(idx); ok {
		w := algebra.CalcSVInto(gr.bld.WriteRange(lo, hi), op, scalar, v, scalarLeft)
		gr.written[m] = hi - lo
		return storage.NewBuilderColumn(fmt.Sprintf("(calc%s%s)", op, v.Name()), v.Seq(), gr.bld, lo, hi), w
	}
	if buf := j.colBuf(idx, v.Len()); buf != nil {
		w := algebra.CalcSVInto(buf, op, scalar, v, scalarLeft)
		col := j.cachedCol(idx, v.Seq(), buf, nil, func() string {
			return fmt.Sprintf("(calc%s%s)", op, v.Name())
		})
		return col, w
	}
	return algebra.CalcSV(op, scalar, v, scalarLeft)
}

// colPartsScratch / oidPartsScratch return the arena's variadic-argument
// gather buffers (kernels never retain them).
func (j *PlanJob) colPartsScratch(n int) []*storage.Column {
	a := j.arena
	if cap(a.colParts) < n {
		a.colParts = make([]*storage.Column, n)
	}
	return a.colParts[:n]
}

func (j *PlanJob) oidPartsScratch(n int) [][]int64 {
	a := j.arena
	if cap(a.oidParts) < n {
		a.oidParts = make([][]int64, n)
	}
	return a.oidParts[:n]
}

func evalPack(j *PlanJob, idx int, in *plan.Instr, args []Value, dst []Value) ([]Value, algebra.Work, error) {
	switch args[0].Kind {
	case plan.KindOids:
		parts := j.oidPartsScratch(len(args))
		total := 0
		for i, a := range args {
			parts[i] = a.Oids
			total += len(a.Oids)
		}
		out, w := algebra.PackOidsInto(j.oidBufIn(idx, total), parts)
		j.oidBufOut(idx, out)
		return append(dst, OidsValue(out)), w, nil
	case plan.KindColumn:
		if col, w, ok := j.packView(idx, args); ok {
			return append(dst, ColValue(col)), w, nil
		}
		cols := j.colPartsScratch(len(args))
		for i, a := range args {
			cols[i] = a.Col
		}
		out, w := algebra.PackColumns(cols)
		return append(dst, ColValue(out)), w, nil
	case plan.KindScalar:
		partials := j.colBuf(idx, len(args))
		if partials == nil {
			partials = make([]int64, len(args))
		}
		for i, a := range args {
			partials[i] = a.Scalar
		}
		// The gathered slice is owned by this instruction (arena or fresh),
		// so the pack may alias it instead of copying again.
		out, w := algebra.PackScalarsOwned("partials", partials)
		return append(dst, ColValue(out)), w, nil
	}
	return nil, algebra.Work{}, fmt.Errorf("exec: pack over %s", args[0].Kind)
}
