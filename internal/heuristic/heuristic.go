// Package heuristic implements the paper's baseline: MonetDB-style static
// heuristic parallelization (HP, §4.2.1). A plan rewriter propagates a fixed
// number of range partitions — chosen up front from the thread count and the
// largest table — through every data-flow-dependent operator, parallelizing
// "all possible parallelizable operators" (unlike AP, which parallelizes
// only the observed-expensive ones). The result is the familiar mitosis +
// mergetable plan: k clones of the whole tainted pipeline with exchange
// unions only where a serial operator needs the combined value.
package heuristic

import (
	"fmt"

	"repro/internal/plan"
	"repro/internal/storage"
)

// Config controls the static parallelizer.
type Config struct {
	// Partitions is the fixed partition count (MonetDB uses the thread
	// count for in-memory data; the paper's experiments use 32).
	Partitions int
	// Table optionally names the partitioned table; empty selects the
	// largest table bound in the plan (the MonetDB heuristic).
	Table string
}

// Parallelize rewrites the serial plan into a statically parallelized plan
// with cfg.Partitions range partitions over the chosen table. The input
// plan is not modified.
func Parallelize(p *plan.Plan, cat *storage.Catalog, cfg Config) (*plan.Plan, error) {
	if cfg.Partitions < 2 {
		return p.Clone(), nil
	}
	target := cfg.Table
	if target == "" {
		target = largestBoundTable(p, cat)
	}
	if target == "" {
		return p.Clone(), nil
	}
	r := &rewriter{
		src:        p,
		cat:        cat,
		out:        plan.New(),
		k:          cfg.Partitions,
		target:     target,
		single:     map[plan.VarID]plan.VarID{},
		parted:     map[plan.VarID][]plan.VarID{},
		packed:     map[plan.VarID]plan.VarID{},
		taint:      map[plan.VarID]bool{},
		done:       map[int]bool{},
		localSpace: map[plan.VarID]bool{},
	}
	if err := r.run(); err != nil {
		return nil, err
	}
	if err := r.out.TopoSort(); err != nil {
		return nil, err
	}
	return r.out, nil
}

// largestBoundTable returns the largest-cardinality table referenced by the
// plan's binds.
func largestBoundTable(p *plan.Plan, cat *storage.Catalog) string {
	best := ""
	bestRows := -1
	for _, in := range p.Instrs {
		if in.Op != plan.OpBind {
			continue
		}
		aux := in.Aux.(plan.BindAux)
		t, err := cat.Table(aux.Table)
		if err != nil {
			continue
		}
		if t.Rows() > bestRows {
			bestRows = t.Rows()
			best = aux.Table
		}
	}
	return best
}

type rewriter struct {
	src    *plan.Plan
	cat    *storage.Catalog
	out    *plan.Plan
	k      int
	target string

	single map[plan.VarID]plan.VarID   // serial-value mapping
	parted map[plan.VarID][]plan.VarID // partitioned-value mapping
	packed map[plan.VarID]plan.VarID   // cache of materialized packs
	taint  map[plan.VarID]bool         // derived from the partitioned table
	done   map[int]bool                // source instrs already handled
	// localSpace marks parted source vars whose partition columns live in
	// partition-local row spaces (fresh zero-based heads with no global
	// offset): everything derived from pre-partitioned inputs. Row ids
	// produced in a local space can only be consumed by co-partitioned
	// clones and can never be packed — the alignment hazard of §2.3 made
	// explicit. Partitions created by slicing a single value (applyPart)
	// keep globally aligned heads and stay packable.
	localSpace map[plan.VarID]bool
}

func (r *rewriter) newVar(k plan.Kind) plan.VarID { return r.out.NewVar(k, "") }

// getSingle returns the serial variable for src var v, materializing an
// exchange union over its partitions if necessary (the mergetable step).
func (r *rewriter) getSingle(v plan.VarID) plan.VarID {
	if sv, ok := r.single[v]; ok {
		return sv
	}
	if pv, ok := r.packed[v]; ok {
		return pv
	}
	parts, ok := r.parted[v]
	if !ok {
		panic(fmt.Sprintf("heuristic: source var %d has no mapping", int(v)))
	}
	if r.localSpace[v] && r.src.KindOf(v) == plan.KindOids {
		panic(fmt.Sprintf("heuristic: var %d carries partition-local row ids and cannot be packed", int(v)))
	}
	pv := r.newVar(plan.PackKind(r.src.KindOf(v)))
	r.out.Append(&plan.Instr{Op: plan.OpPack, Args: parts, Rets: []plan.VarID{pv},
		Part: plan.FullPart(), Comment: "heuristic exchange union"})
	r.packed[v] = pv
	return pv
}

// isPartitioned reports whether any anchor argument of in carries partitions
// or taints from the target table.
func (r *rewriter) isPartitioned(in *plan.Instr) bool {
	for _, ai := range plan.SliceArgs(in.Op) {
		a := in.Args[ai]
		if _, ok := r.parted[a]; ok {
			return true
		}
		if r.taint[a] {
			return true
		}
	}
	return false
}

func (r *rewriter) run() error {
	for i, in := range r.src.Instrs {
		if r.done[i] {
			continue
		}
		if err := r.instr(i, in); err != nil {
			return err
		}
	}
	return nil
}

func (r *rewriter) instr(idx int, in *plan.Instr) error {
	switch in.Op {
	case plan.OpBind:
		aux := in.Aux.(plan.BindAux)
		nv := r.newVar(plan.KindColumn)
		r.out.Append(&plan.Instr{Op: plan.OpBind, Aux: aux, Rets: []plan.VarID{nv}, Part: plan.FullPart()})
		r.single[in.Rets[0]] = nv
		if aux.Table == r.target {
			r.taint[in.Rets[0]] = true
		}
		return nil

	case plan.OpGroupBy:
		if r.isPartitioned(in) {
			return r.groupByPartitioned(idx, in)
		}
		return r.copySerial(in)

	case plan.OpAggr:
		if r.isPartitioned(in) {
			return r.aggrPartitioned(in)
		}
		return r.copySerial(in)
	}

	if plan.BasicPartitionable(in.Op) && r.isPartitioned(in) {
		return r.basicPartitioned(in)
	}
	return r.copySerial(in)
}

// copySerial emits in unchanged, packing any partitioned argument first.
func (r *rewriter) copySerial(in *plan.Instr) error {
	args := make([]plan.VarID, len(in.Args))
	for i, a := range in.Args {
		args[i] = r.getSingle(a)
	}
	rets := make([]plan.VarID, len(in.Rets))
	for i, ret := range in.Rets {
		rets[i] = r.newVar(r.src.KindOf(ret))
		r.single[ret] = rets[i]
	}
	r.out.Append(&plan.Instr{Op: in.Op, Args: args, Rets: rets, Aux: in.Aux, Part: in.Part})
	return nil
}

// cloneArgs builds the argument list of clone i: anchor args use the i-th
// partition variable when partitioned upstream, or the serial variable with
// Part set when the partitioning starts at this operator. Returns the args
// and whether Part must be applied.
func (r *rewriter) cloneArgs(in *plan.Instr, i int) (args []plan.VarID, applyPart bool, err error) {
	anchors := map[int]bool{}
	for _, ai := range plan.SliceArgs(in.Op) {
		anchors[ai] = true
	}
	// When an anchor lives in a partition-local row space, every
	// partitioned argument of the clone must come from the same partition:
	// local row ids only make sense against their co-partitioned values.
	coPartition := false
	for _, ai := range plan.SliceArgs(in.Op) {
		if a := in.Args[ai]; r.localSpace[a] && r.parted[a] != nil {
			coPartition = true
		}
	}
	args = make([]plan.VarID, len(in.Args))
	partedAnchors, taintedAnchors := 0, 0
	for ai, a := range in.Args {
		switch {
		case anchors[ai] && r.parted[a] != nil:
			args[ai] = r.parted[a][i]
			partedAnchors++
		case anchors[ai] && r.taint[a]:
			args[ai] = r.getSingle(a)
			taintedAnchors++
		case coPartition && r.parted[a] != nil:
			args[ai] = r.parted[a][i]
		default:
			args[ai] = r.getSingle(a)
		}
	}
	if partedAnchors > 0 && taintedAnchors > 0 {
		// One anchor pre-partitioned, another needing Part slicing: the two
		// would disagree on ranges. Builder plans co-partition anchors, so
		// this indicates an unsupported shape.
		return nil, false, fmt.Errorf("heuristic: %s mixes partitioned and tainted anchors", in.Op)
	}
	return args, taintedAnchors > 0, nil
}

// basicPartitioned clones in per partition.
func (r *rewriter) basicPartitioned(in *plan.Instr) error {
	parts := plan.FullPart().SplitN(r.k)
	cloneRets := make([][]plan.VarID, len(in.Rets))
	for ri := range in.Rets {
		cloneRets[ri] = make([]plan.VarID, r.k)
	}
	sliced := false
	for i := 0; i < r.k; i++ {
		args, applyPart, err := r.cloneArgs(in, i)
		if err != nil {
			return err
		}
		sliced = applyPart
		rets := make([]plan.VarID, len(in.Rets))
		for ri, ret := range in.Rets {
			rets[ri] = r.newVar(r.src.KindOf(ret))
			cloneRets[ri][i] = rets[ri]
		}
		part := plan.FullPart()
		if applyPart {
			part = parts[i]
		}
		r.out.Append(&plan.Instr{Op: in.Op, Args: args, Rets: rets, Aux: in.Aux,
			Part: part, Comment: "heuristic clone"})
	}
	for ri, ret := range in.Rets {
		r.parted[ret] = cloneRets[ri]
		r.taint[ret] = true
		// Slice-partitioned clones keep globally aligned heads (the
		// interpreter re-seqs their outputs onto the base column, §2.3);
		// clones built from pre-partitioned inputs live in partition-local
		// row spaces — their columns, and the oid results the opcode table
		// marks as row ids (not a join's inner match list, whose values are
		// global oids into the shared inner).
		if !sliced && (r.src.KindOf(ret) != plan.KindOids || plan.RowIDRet(in.Op, ri)) {
			r.localSpace[ret] = true
		}
	}
	return nil
}

// aggrPartitioned emits k scalar-aggregate clones, packs the partials and
// merges them.
func (r *rewriter) aggrPartitioned(in *plan.Instr) error {
	aux := in.Aux.(plan.AggrAux)
	parts := plan.FullPart().SplitN(r.k)
	partials := make([]plan.VarID, r.k)
	for i := 0; i < r.k; i++ {
		args, applyPart, err := r.cloneArgs(in, i)
		if err != nil {
			return err
		}
		part := plan.FullPart()
		if applyPart {
			part = parts[i]
		}
		pv := r.newVar(plan.KindScalar)
		partials[i] = pv
		r.out.Append(&plan.Instr{Op: plan.OpAggr, Args: args, Rets: []plan.VarID{pv},
			Aux: aux, Part: part, Comment: "heuristic partial aggregate"})
	}
	packed := r.newVar(plan.KindColumn)
	r.out.Append(&plan.Instr{Op: plan.OpPack, Args: partials, Rets: []plan.VarID{packed},
		Part: plan.FullPart(), Comment: "pack of partial aggregates"})
	merged := r.newVar(plan.KindScalar)
	r.out.Append(&plan.Instr{Op: plan.OpMergeAggr, Args: []plan.VarID{packed},
		Rets: []plan.VarID{merged}, Aux: aux, Part: plan.FullPart(), Comment: "merge of partial aggregates"})
	r.single[in.Rets[0]] = merged
	return nil
}

// groupByPartitioned emits the partial-grouping scheme for a group-by and
// absorbs its dependent aggregates and key extraction.
func (r *rewriter) groupByPartitioned(idx int, in *plan.Instr) error {
	gOut := in.Rets[0]
	var aggrs []*plan.Instr
	var aggrIdx []int
	var keyOps []*plan.Instr
	var keyIdx []int
	for _, ci := range r.src.Consumers(gOut) {
		c := r.src.Instrs[ci]
		switch c.Op {
		case plan.OpAggrGrouped:
			aggrs = append(aggrs, c)
			aggrIdx = append(aggrIdx, ci)
		case plan.OpGroupKeys:
			keyOps = append(keyOps, c)
			keyIdx = append(keyIdx, ci)
		default:
			// Unsupported consumer: fall back to a serial group-by over the
			// packed input.
			return r.copySerial(in)
		}
	}
	if len(aggrs) == 0 {
		return r.copySerial(in)
	}

	parts := plan.FullPart().SplitN(r.k)
	gClones := make([]plan.VarID, r.k)
	kClones := make([]plan.VarID, r.k)
	for i := 0; i < r.k; i++ {
		args, applyPart, err := r.cloneArgs(in, i)
		if err != nil {
			return err
		}
		part := plan.FullPart()
		if applyPart {
			part = parts[i]
		}
		gv := r.newVar(plan.KindGroups)
		gClones[i] = gv
		r.out.Append(&plan.Instr{Op: plan.OpGroupBy, Args: args, Rets: []plan.VarID{gv},
			Part: part, Comment: "heuristic partial groupby"})
		kv := r.newVar(plan.KindColumn)
		kClones[i] = kv
		r.out.Append(&plan.Instr{Op: plan.OpGroupKeys, Args: []plan.VarID{gv},
			Rets: []plan.VarID{kv}, Part: plan.FullPart()})
	}
	keysPack := r.newVar(plan.KindColumn)
	r.out.Append(&plan.Instr{Op: plan.OpPack, Args: kClones, Rets: []plan.VarID{keysPack},
		Part: plan.FullPart(), Comment: "pack of partial group keys"})

	firstKeys := plan.VarID(-1)
	for j, a := range aggrs {
		aux := a.Aux.(plan.AggrAux)
		partials := make([]plan.VarID, r.k)
		for i := 0; i < r.k; i++ {
			// vals arg co-partitioned like the group-by keys.
			var valsArg plan.VarID
			srcVals := a.Args[0]
			part := plan.FullPart()
			if pv, ok := r.parted[srcVals]; ok {
				valsArg = pv[i]
			} else {
				valsArg = r.getSingle(srcVals)
				part = parts[i]
			}
			av := r.newVar(plan.KindColumn)
			partials[i] = av
			r.out.Append(&plan.Instr{Op: plan.OpAggrGrouped,
				Args: []plan.VarID{valsArg, gClones[i]}, Rets: []plan.VarID{av},
				Aux: aux, Part: part, Comment: "heuristic partial grouped aggregate"})
		}
		aggPack := r.newVar(plan.KindColumn)
		r.out.Append(&plan.Instr{Op: plan.OpPack, Args: partials, Rets: []plan.VarID{aggPack},
			Part: plan.FullPart(), Comment: "pack of partial aggregates"})
		mk := r.newVar(plan.KindColumn)
		ma := r.newVar(plan.KindColumn)
		r.out.Append(&plan.Instr{Op: plan.OpGroupMerge, Args: []plan.VarID{keysPack, aggPack},
			Rets: []plan.VarID{mk, ma}, Aux: aux, Part: plan.FullPart(), Comment: "group merge"})
		r.single[a.Rets[0]] = ma
		if firstKeys < 0 {
			firstKeys = mk
		}
		r.done[aggrIdx[j]] = true
	}
	for j, kop := range keyOps {
		r.single[kop.Rets[0]] = firstKeys
		r.done[keyIdx[j]] = true
	}
	r.done[idx] = true
	return nil
}

// PlanStats summarizes a plan for Table 5-style reporting.
type PlanStats struct {
	Selects int
	Joins   int
	Packs   int
	Instrs  int
	MaxDOP  int
}

// Stats computes plan statistics.
func Stats(p *plan.Plan) PlanStats {
	return PlanStats{
		Selects: p.CountOps(plan.OpSelect) + p.CountOps(plan.OpSelectCand) + p.CountOps(plan.OpLikeSelect),
		Joins:   p.CountOps(plan.OpJoin),
		Packs:   p.CountOps(plan.OpPack),
		Instrs:  len(p.Instrs),
		MaxDOP:  p.MaxDOP(),
	}
}
