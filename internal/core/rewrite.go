// Package core implements the paper's contribution: adaptive
// parallelization. It contains the three plan-mutation schemes of §2.1
// (basic, medium, advanced), dynamic range partitioning with dyadic
// boundaries (§2.3), the exchange-union input threshold that suppresses plan
// explosion, the convergence algorithm of §3 (GME detection, ROI-driven
// credit/debit budget, leaking debit, outlier peaks), and the adaptation
// session that ties them to the execution engine.
package core

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/plan"
)

// MutationKind labels the mutation scheme applied (§2.1).
type MutationKind int

const (
	// MutationNone: no mutation was possible; the plan is unchanged.
	MutationNone MutationKind = iota
	// MutationBasic: an expensive operator was cloned over a split range
	// (Figure 3 / Figure 4).
	MutationBasic
	// MutationMedium: an expensive exchange union was removed and its
	// inputs propagated to dataflow-dependent operators (Figure 5).
	MutationMedium
	// MutationAdvanced: a non-filtering operator (group-by, aggregate,
	// sort) was parallelized with partials and a merge (Figure 6).
	MutationAdvanced
)

func (k MutationKind) String() string {
	switch k {
	case MutationNone:
		return "none"
	case MutationBasic:
		return "basic"
	case MutationMedium:
		return "medium"
	case MutationAdvanced:
		return "advanced"
	}
	return fmt.Sprintf("mutation(%d)", int(k))
}

// ErrSuppressed reports that a pack's removal was suppressed because its
// input count crossed the threshold (§2.3, "Plan explosion"): the plan stops
// growing and convergence is left to drain.
var ErrSuppressed = errors.New("core: exchange union removal suppressed (input threshold)")

// errNotApplicable reports a mutation that cannot apply at this instruction;
// the mutator then tries the next most expensive operator.
var errNotApplicable = errors.New("core: mutation not applicable")

// rewriteCtx accumulates one mutation's edits over a plan derived from the
// one being mutated (plan.Derive: it shares that plan's instructions) and
// commits them in a single pass. Its methods are the whole edit vocabulary of
// the three mutations: remove / emit / clone / rewire build the new subgraph,
// users / own / splice / dropDead re-attach it to what survives. The plan's
// instructions are named by index until commit reorders them.
type rewriteCtx struct {
	p       *plan.Plan
	removed []bool // by instruction index
	owned   []bool // by instruction index: replaced by this plan's own copy
	addend  []*plan.Instr
	rewires map[plan.VarID]plan.VarID
}

func newRewrite(p *plan.Plan) *rewriteCtx {
	n := len(p.Instrs)
	flags := make([]bool, 2*n)
	return &rewriteCtx{p: p, removed: flags[:n:n], owned: flags[n:]}
}

func (rw *rewriteCtx) remove(i int) { rw.removed[i] = true }

func (rw *rewriteCtx) rewire(from, to plan.VarID) {
	if rw.rewires == nil {
		rw.rewires = map[plan.VarID]plan.VarID{}
	}
	rw.rewires[from] = to
}

// own returns instruction i for writing. The instruction is shared with the
// plan being mutated until its first write, which replaces it with a copy.
func (rw *rewriteCtx) own(i int) *plan.Instr {
	if !rw.owned[i] {
		cp := *rw.p.Instrs[i]
		cp.Args = slices.Clone(cp.Args)
		rw.p.Instrs[i] = &cp
		rw.owned[i] = true
	}
	return rw.p.Instrs[i]
}

// emit adds a new full-range instruction with fresh results of the given
// kinds and returns them.
func (rw *rewriteCtx) emit(op plan.OpCode, args []plan.VarID, aux any, comment string, kinds ...plan.Kind) []plan.VarID {
	rets := make([]plan.VarID, len(kinds))
	for i, k := range kinds {
		rets[i] = rw.p.NewVar(k, "")
	}
	rw.addend = append(rw.addend, &plan.Instr{Op: op, Args: args, Rets: rets, Aux: aux, Part: plan.FullPart(), Comment: comment})
	return rets
}

// clone adds a copy of t (opcode, aux, result kinds) over args and part, with
// fresh result variables.
func (rw *rewriteCtx) clone(t *plan.Instr, args []plan.VarID, part plan.Part, comment string) *plan.Instr {
	rets := make([]plan.VarID, len(t.Rets))
	for j, r := range t.Rets {
		rets[j] = rw.p.NewVar(rw.p.KindOf(r), "")
	}
	c := &plan.Instr{Op: t.Op, Args: args, Rets: rets, Aux: t.Aux, Part: part, Comment: comment}
	rw.addend = append(rw.addend, c)
	return c
}

// cloneOver creates one clone of t per sub-range of t's current partition.
// The clones inherit t's arguments (so join clones share the inner build,
// §2.1).
func (rw *rewriteCtx) cloneOver(t *plan.Instr, parts []plan.Part, comment string) []*plan.Instr {
	clones := make([]*plan.Instr, len(parts))
	for i, part := range parts {
		clones[i] = rw.clone(t, slices.Clone(t.Args), part, comment)
	}
	return clones
}

// users returns the indices of the surviving instructions of the plan that
// consume any of vars, in plan order.
func (rw *rewriteCtx) users(vars ...plan.VarID) []int {
	var out []int
	for i, in := range rw.p.Instrs {
		if !rw.removed[i] && slices.ContainsFunc(in.Args, func(a plan.VarID) bool { return slices.Contains(vars, a) }) {
			out = append(out, i)
		}
	}
	return out
}

// splice substitutes repl for the variables old in pk's argument list: the
// first argument found in old (and any repeat of that same variable) becomes
// repl, the other members of old are dropped. Everything else keeps its
// place, which preserves partition order (the ordering invariant of §2.3).
func splice(pk *plan.Instr, old, repl []plan.VarID) {
	args := make([]plan.VarID, 0, len(pk.Args)+len(repl))
	first := plan.VarID(-1)
	for _, a := range pk.Args {
		switch {
		case !slices.Contains(old, a):
			args = append(args, a)
		case first < 0 || a == first:
			first = a
			args = append(args, repl...)
		}
	}
	pk.Args = args
}

// dropDead removes the packs among ws (instruction indices) that are left
// without a consumer, so they stop costing execution time.
func (rw *rewriteCtx) dropDead(ws []int) {
	for _, w := range ws {
		if len(rw.users(rw.p.Instrs[w].Rets[0])) == 0 {
			rw.remove(w)
		}
	}
}

// commit assembles the final instruction list, applies variable rewires to
// surviving and added instructions, and restores topological order.
func (rw *rewriteCtx) commit() (*plan.Plan, error) {
	out := make([]*plan.Instr, 0, len(rw.p.Instrs)+len(rw.addend))
	for i, in := range rw.p.Instrs {
		if rw.removed[i] {
			continue
		}
		if rw.rewires != nil && slices.ContainsFunc(in.Args, rw.rewired) {
			in = rw.own(i)
			rw.applyRewires(in)
		}
		out = append(out, in)
	}
	for _, in := range rw.addend {
		rw.applyRewires(in)
	}
	rw.p.Instrs = append(out, rw.addend...)
	if err := rw.p.TopoSort(); err != nil {
		return nil, err
	}
	return rw.p, nil
}

func (rw *rewriteCtx) rewired(v plan.VarID) bool {
	_, ok := rw.rewires[v]
	return ok
}

// applyRewires rewrites in's arguments in place; in is the plan's own.
func (rw *rewriteCtx) applyRewires(in *plan.Instr) {
	for i, a := range in.Args {
		if to, ok := rw.rewires[a]; ok {
			in.Args[i] = to
		}
	}
}

// retsAt collects the ri-th result of every instruction.
func retsAt(instrs []*plan.Instr, ri int) []plan.VarID {
	out := make([]plan.VarID, len(instrs))
	for i, in := range instrs {
		out[i] = in.Rets[ri]
	}
	return out
}

// combineRet wires the ri-th results of the clones into every consumer of
// the original result variable r:
//
//   - consumers that are packs get the clone results spliced in place of r;
//   - other consumers are rewired to a new pack over the clone results —
//     and, for scalar aggregates, to a merge over the packed partials
//     (aggr → pack → mergeaggr, the Figure 7 shape), or to a sorted-run
//     merge for sorts.
//
// origin is the (already removed) instruction being replaced; its aux
// provides merge semantics.
func (rw *rewriteCtx) combineRet(origin *plan.Instr, r plan.VarID, ri int, clones []*plan.Instr) error {
	cloneRets := retsAt(clones, ri)
	needCombined := false
	for _, i := range rw.users(r) {
		if op := rw.p.Instrs[i].Op; op == plan.OpPack || op == plan.OpMergeSorted {
			splice(rw.own(i), []plan.VarID{r}, cloneRets)
		} else {
			needCombined = true
		}
	}
	if !needCombined {
		return nil
	}

	retKind := rw.p.KindOf(r)
	switch {
	case origin.Op == plan.OpSort && ri == 0:
		// Sorted runs must merge, not concatenate.
		rw.rewire(r, rw.emit(plan.OpMergeSorted, cloneRets, origin.Aux, "merge of sorted runs", plan.KindColumn)[0])
	case retKind == plan.KindScalar:
		// Scalar aggregate partials: pack then merge (Figure 7's
		// mat.pack + aggr.sum over partials).
		aux, ok := origin.Aux.(plan.AggrAux)
		if !ok {
			return errNotApplicable
		}
		pv := rw.emit(plan.OpPack, cloneRets, nil, "pack of partial aggregates", plan.KindColumn)[0]
		rw.rewire(r, rw.emit(plan.OpMergeAggr, []plan.VarID{pv}, aux, "merge of partial aggregates", plan.KindScalar)[0])
	default:
		rw.rewire(r, rw.emit(plan.OpPack, cloneRets, nil, "exchange union", plan.PackKind(retKind))[0])
	}
	return nil
}

// Parallelize applies the mutation appropriate for instruction idx of p,
// splitting its partition into nParts sub-ranges, and returns the mutated
// plan (derived from p, whose instructions it shares where unchanged; p
// itself is never modified). Basic operators use the basic mutation;
// scalar aggregates and sorts the partial+merge scheme; group-bys the full
// advanced mutation. Packs must go through RemovePack instead.
func Parallelize(p *plan.Plan, idx, nParts int) (*plan.Plan, MutationKind, error) {
	if idx < 0 || idx >= len(p.Instrs) {
		return nil, MutationNone, fmt.Errorf("core: instruction %d out of range", idx)
	}
	kind, mutate := MutationBasic, parallelizeBasic
	switch op := p.Instrs[idx].Op; {
	case op == plan.OpGroupBy:
		kind, mutate = MutationAdvanced, parallelizeGroupBy
	case plan.AdvancedPartitionable(op):
		kind = MutationAdvanced
	case !plan.BasicPartitionable(op):
		return nil, MutationNone, errNotApplicable
	}
	np, err := mutate(p.Derive(), idx, nParts)
	if err != nil {
		return nil, MutationNone, err
	}
	return np, kind, nil
}

// parallelizeBasic is the basic mutation (Figure 3/4), also used for scalar
// aggregates and sorts whose combining stage differs only in the combiner
// operator emitted by combineRet.
func parallelizeBasic(cp *plan.Plan, idx, nParts int) (*plan.Plan, error) {
	t := cp.Instrs[idx]
	// The permutation result of a parallelized sort is not reconstructible
	// by concatenation; refuse if it is consumed.
	if t.Op == plan.OpSort && len(cp.Consumers(t.Rets[1])) > 0 {
		return nil, errNotApplicable
	}
	rw := newRewrite(cp)
	clones := rw.cloneOver(t, t.Part.SplitN(nParts), "clone of "+t.Op.String())
	rw.remove(idx)
	for ri, r := range t.Rets {
		if t.Op == plan.OpSort && ri == 1 {
			continue // permutation unconsumed, checked above
		}
		if err := rw.combineRet(t, r, ri, clones); err != nil {
			return nil, err
		}
	}
	return rw.commit()
}

// groupPattern classifies the consumers of group-by g into its grouped
// aggregates and key extractions (instruction indices, plan order) — the
// subgraph the advanced mutation (Figure 6) clones as a unit. ok is false
// when anything else consumes the groups.
func groupPattern(p *plan.Plan, g *plan.Instr) (aggrs, keys []int, ok bool) {
	for _, ci := range p.Consumers(g.Rets[0]) {
		switch p.Instrs[ci].Op {
		case plan.OpAggrGrouped:
			aggrs = append(aggrs, ci)
		case plan.OpGroupKeys:
			keys = append(keys, ci)
		default:
			return nil, nil, false
		}
	}
	return aggrs, keys, true
}

// parallelizeGroupBy is the advanced mutation for group-by (Figure 6): the
// group-by and its dataflow-dependent aggregates are cloned over the key
// partitions; per-partition keys and partial aggregates are packed; a
// group-merge combines them. On re-application to an already-cloned
// group-by the clone results are spliced into the existing packs and the
// existing merge is reused.
func parallelizeGroupBy(cp *plan.Plan, idx, nParts int) (*plan.Plan, error) {
	g := cp.Instrs[idx]
	aggrIdx, keyIdx, ok := groupPattern(cp, g)
	if !ok || len(aggrIdx) == 0 {
		return nil, errNotApplicable
	}
	aggrs, keyOps := instrsAt(cp, aggrIdx), instrsAt(cp, keyIdx)
	// The vals inputs of the dependent aggregates must be positionally
	// co-partitioned with the keys; the builder guarantees both derive from
	// the same candidate list. (AggrGrouped validates lengths at runtime.)

	rw := newRewrite(cp)
	parts := g.Part.SplitN(nParts)
	gClones := rw.cloneOver(g, parts, "clone of groupby")
	rw.remove(idx)

	// Clone each dependent aggregate per partition, co-partitioning its
	// values input, then the per-partition distinct keys.
	aggClones := make([][]*plan.Instr, len(aggrs))
	for ai, a := range aggrs {
		for i, part := range parts {
			args := slices.Clone(a.Args)
			args[1] = gClones[i].Rets[0]
			aggClones[ai] = append(aggClones[ai], rw.clone(a, args, part, "clone of aggrgrouped"))
		}
		rw.remove(aggrIdx[ai])
	}
	keyRets := make([]plan.VarID, len(parts))
	for i := range parts {
		keyRets[i] = rw.emit(plan.OpGroupKeys, []plan.VarID{gClones[i].Rets[0]}, nil, "clone of groupkeys", plan.KindColumn)[0]
	}
	for _, k := range keyIdx {
		rw.remove(k)
	}

	// Existing downstream combiners? If the original results fed packs (a
	// previous advanced mutation), splice; otherwise build the pack +
	// group-merge tail.
	spliceIntoPacks := func(r plan.VarID, repl []plan.VarID) bool {
		spliced := false
		for _, i := range rw.users(r) {
			if rw.p.Instrs[i].Op == plan.OpPack {
				splice(rw.own(i), []plan.VarID{r}, repl)
				spliced = true
			}
		}
		return spliced
	}

	keysPackNeeded := len(keyOps) == 0 || !spliceIntoPacks(keyOps[0].Rets[0], keyRets)
	var keysPack []plan.VarID
	if keysPackNeeded {
		keysPack = rw.emit(plan.OpPack, keyRets, nil, "pack of partial group keys", plan.KindColumn)
	}
	firstMergeKeys := plan.VarID(-1)
	for ai, a := range aggrs {
		r, partials := a.Rets[0], retsAt(aggClones[ai], 0)
		if spliceIntoPacks(r, partials) {
			continue // existing merge downstream still applies
		}
		aux, ok := a.Aux.(plan.AggrAux)
		// !keysPackNeeded is a mixed state: keys already packed upstream but
		// this aggregate was not — cannot happen with builder-produced plans.
		if !keysPackNeeded || !ok {
			return nil, errNotApplicable
		}
		aggPack := rw.emit(plan.OpPack, partials, nil, "pack of partial aggregates", plan.KindColumn)
		merged := rw.emit(plan.OpGroupMerge, []plan.VarID{keysPack[0], aggPack[0]}, aux, "group merge", plan.KindColumn, plan.KindColumn)
		rw.rewire(r, merged[1])
		if firstMergeKeys < 0 {
			firstMergeKeys = merged[0]
		}
	}
	// Rewire key consumers to the merged keys. (When the keys were spliced
	// into an existing pack, that pack's merge already serves them.)
	for _, k := range keyOps {
		if !keysPackNeeded || len(cp.Consumers(k.Rets[0])) == 0 {
			continue
		}
		if firstMergeKeys < 0 {
			return nil, errNotApplicable
		}
		rw.rewire(k.Rets[0], firstMergeKeys)
	}
	return rw.commit()
}

// famKey identifies sibling clones: same opcode, aux and argument list.
type famKey struct {
	op   plan.OpCode
	aux  any
	args string
}

// keyOf renders in's family key; the argument list becomes a string without
// fmt's boxing (RemovePack keys every consumer on it).
func keyOf(in *plan.Instr) famKey {
	buf := make([]byte, 0, 4*len(in.Args))
	for _, a := range in.Args {
		buf = strconv.AppendInt(buf, int64(a), 10)
		buf = append(buf, ',')
	}
	return famKey{op: in.Op, aux: in.Aux, args: string(buf)}
}

// RemovePack is the medium mutation (Figure 5): the expensive exchange
// union at idx is removed and its inputs are propagated to its
// dataflow-dependent operators, which are "cloned to match the exchange
// union operator's input" (§2.1). Unpartitioned consumers are cloned once
// per input; a *family* of positionally partitioned consumer clones (from
// earlier basic mutations over the packed value) is replaced wholesale by
// per-input clones, its downstream packs rewired in partition order.
// Removal is suppressed (ErrSuppressed) when the pack has more than
// threshold inputs, capping plan explosion (§2.3).
//
// The applicability checks — the group-by routing, the row-space rule, the
// families and their downstream packs — read p only, and the plan is
// derived once they pass: the mutation walk tries packs most expensive
// first, and a refused one costs no copy.
func RemovePack(p *plan.Plan, idx int, threshold int) (*plan.Plan, error) {
	if idx < 0 || idx >= len(p.Instrs) || p.Instrs[idx].Op != plan.OpPack {
		return nil, errNotApplicable
	}
	if threshold > 0 && len(p.Instrs[idx].Args) > threshold {
		return nil, ErrSuppressed
	}
	inputs := p.Instrs[idx].Args
	out := p.Instrs[idx].Rets[0]
	producer := p.Producers()

	consumers := p.Consumers(out)
	if len(consumers) == 0 {
		return nil, errNotApplicable
	}
	for _, ci := range consumers {
		c := p.Instrs[ci]
		if c.Op == plan.OpGroupBy {
			// A pack feeding a (possibly partitioned) group-by subgraph is
			// removed by re-cloning the whole group-by/aggregate/keys
			// pattern per pack input.
			return removePackIntoGroupBy(p, idx, producer)
		}
		if c.Op == plan.OpAggrGrouped && c.Args[0] == out {
			// The pack feeds a grouped aggregate as its VALUES input; the
			// grouping itself hangs off a sibling pack. Remove the whole
			// subgraph through the groups-side pack (which treats this one
			// as a co-partitioned sibling).
			gi := producer[c.Args[1]]
			if gi < 0 || p.Instrs[gi].Op != plan.OpGroupBy {
				return nil, errNotApplicable
			}
			si := producer[p.Instrs[gi].Args[0]]
			if si < 0 || p.Instrs[si].Op != plan.OpPack {
				return nil, errNotApplicable
			}
			return removePackIntoGroupBy(p, int(si), producer)
		}
	}

	// The row-space rule. Propagation runs each consumer over one pack
	// input instead of the packed value, so a result that holds row ids of
	// the packed value (plan.RowIDRet) stays meaningful only if every
	// input's head sequence is its position in the packed value — true
	// exactly when the inputs are a sliced tiling of one anchor. Propagated
	// full-range clones each start at 0, and a pack flattened from several
	// tilings restarts per family: their row ids would index a sibling pack
	// at the wrong rows. Oid packs are exempt (their values are global ids),
	// as is a row-id result nobody consumes.
	if p.KindOf(out) == plan.KindColumn && !slicedTiling(p, producer, inputs) {
		for _, ci := range consumers {
			c := p.Instrs[ci]
			for ri, r := range c.Rets {
				if plan.RowIDRet(c.Op, ri) && len(p.Consumers(r)) > 0 {
					return nil, errNotApplicable
				}
			}
		}
	}

	// Group the consumers into families: sibling clones sharing opcode,
	// aux and arguments whose partitions together cover the full packed
	// range. An unpartitioned consumer is a family of one. Members of one
	// family share opcode and arguments, so the first one's checks answer
	// for all of them.
	type family struct {
		members  []int     // consumer indices, plan order
		siblings []sibling // packs feeding the other anchors, SliceArgs order
		packs    []int     // per result: the pack a partitioned family feeds (-1: none)
	}
	fams := map[famKey]*family{}
	var famOrder []famKey
	for _, ci := range consumers {
		c := p.Instrs[ci]
		if c.Op == plan.OpPack {
			continue // handled by flattening below
		}
		k := keyOf(c)
		if f, seen := fams[k]; seen {
			f.members = append(f.members, ci)
			continue
		}
		if c.Op != plan.OpAggr && !plan.BasicPartitionable(c.Op) {
			return nil, errNotApplicable
		}
		// Propagation substitutes pack inputs for the packed variable, so
		// the packed variable must cover the consumer's partitionable
		// anchor set: a non-anchor reference (a fetch target, a join inner)
		// would end up misaligned with the substituted partition. A second
		// anchor fed by a *sibling* pack — one whose inputs are
		// co-partitioned with ours, the multi-column dependency of §2.2 —
		// is resolved pairwise: clone i receives input i of both packs.
		anchors := plan.SliceArgs(c.Op)
		for ai, a := range c.Args {
			if a == out && !slices.Contains(anchors, ai) {
				return nil, errNotApplicable
			}
		}
		f := &family{members: []int{ci}}
		for _, ai := range anchors {
			if a := c.Args[ai]; a != out {
				w := findSiblingPack(p, producer, a, inputs)
				if w < 0 {
					return nil, errNotApplicable
				}
				f.siblings = append(f.siblings, sibling{v: a, pack: w})
			}
		}
		famOrder = append(famOrder, k)
		fams[k] = f
	}
	for _, k := range famOrder {
		if !partsCoverFull(instrsAt(p, fams[k].members)) {
			return nil, errNotApplicable
		}
	}
	// A partitioned family is replaced wholesale, so each of its result
	// positions must feed one shared pack (or nothing) once the pack and the
	// families up to this one are gone: that pack takes the per-input
	// clones' results in partition order.
	removed := make([]bool, len(p.Instrs))
	removed[idx] = true
	for _, k := range famOrder {
		f := fams[k]
		for _, m := range f.members {
			removed[m] = true
		}
		if len(f.members) == 1 {
			continue // combineRet wires a lone consumer's results
		}
		for ri := range p.Instrs[f.members[0]].Rets {
			rets := retsAt(instrsAt(p, f.members), ri)
			w := -1
			for i, in := range p.Instrs {
				if removed[i] || !slices.ContainsFunc(in.Args, func(a plan.VarID) bool { return slices.Contains(rets, a) }) {
					continue
				}
				if w >= 0 || in.Op != plan.OpPack {
					return nil, errNotApplicable
				}
				w = i
			}
			f.packs = append(f.packs, w)
		}
	}

	cp := p.Derive()
	rw := newRewrite(cp)
	rw.remove(idx)
	// Flatten into consuming packs: splice the removed pack's inputs.
	for _, ci := range consumers {
		if cp.Instrs[ci].Op == plan.OpPack {
			splice(rw.own(ci), []plan.VarID{out}, inputs)
		}
	}

	var siblingPacks []int
	for _, k := range famOrder {
		f := fams[k]
		members := instrsAt(cp, f.members)
		proto := members[0]
		siblings := map[plan.VarID]*plan.Instr{}
		for _, s := range f.siblings {
			siblings[s.v] = cp.Instrs[s.pack]
			siblingPacks = append(siblingPacks, s.pack)
		}
		// Clone the consumer once per pack input, substituting the input
		// for the packed variable (and the sibling pack's co-partitioned
		// input for its variable) — this is where plans can explode (§2.3).
		clones := make([]*plan.Instr, len(inputs))
		for i, inVar := range inputs {
			args := slices.Clone(proto.Args)
			for ai, a := range args {
				if a == out {
					args[ai] = inVar
				} else if w, ok := siblings[a]; ok {
					args[ai] = w.Args[i]
				}
			}
			clones[i] = rw.clone(proto, args, plan.FullPart(), "propagated "+proto.Op.String())
		}
		for _, m := range f.members {
			rw.remove(m)
		}
		for ri, r := range proto.Rets {
			if len(members) > 1 {
				if w := f.packs[ri]; w >= 0 {
					splice(rw.own(w), retsAt(members, ri), retsAt(clones, ri))
				}
			} else if err := rw.combineRet(proto, r, ri, clones); err != nil {
				return nil, err
			}
		}
	}
	rw.dropDead(siblingPacks)
	return rw.commit()
}

// sibling is a co-partitioned pack (instruction index pack) producing v,
// another anchor of a propagated consumer.
type sibling struct {
	v    plan.VarID
	pack int
}

// instrsAt returns p's instructions at the given indices. The applicability
// checks name instructions by index so that the rewrite can find the same
// ones in p's clone.
func instrsAt(p *plan.Plan, idx []int) []*plan.Instr {
	out := make([]*plan.Instr, len(idx))
	for i, x := range idx {
		out[i] = p.Instrs[x]
	}
	return out
}

// slicedTiling reports whether the pack inputs are the sibling clones of one
// sliced instruction — same opcode, aux and arguments — whose Parts tile
// [0,1) in argument order (the shape plan.PackGroup calls Sliced). Only then
// does exec's head-sequence rule place input i at its offset in the packed
// value. producer is p.Producers().
func slicedTiling(p *plan.Plan, producer []int32, inputs []plan.VarID) bool {
	var first *plan.Instr
	for _, v := range inputs {
		if producer[v] < 0 {
			return false
		}
		c := p.Instrs[producer[v]]
		if first == nil {
			first = c
		} else if c.Op != first.Op || c.Aux != first.Aux || !slices.Equal(c.Args, first.Args) {
			return false
		}
	}
	return plan.PartsTile(len(inputs), func(i int) plan.Part { return p.Instrs[producer[inputs[i]]].Part })
}

// findSiblingPack returns the index of the pack producing v when that pack's
// inputs are co-partitioned one-to-one with the given inputs (same count,
// and each pair of producing instructions shares its partition range and
// anchor argument), else -1. Used to resolve multi-column propagation
// dependencies (§2.2). producer is p.Producers().
func findSiblingPack(p *plan.Plan, producer []int32, v plan.VarID, inputs []plan.VarID) int {
	src := producer[v]
	if src < 0 {
		return -1
	}
	w := p.Instrs[src]
	if w.Op != plan.OpPack || len(w.Args) != len(inputs) {
		return -1
	}
	for i := range inputs {
		pa, pb := producer[inputs[i]], producer[w.Args[i]]
		if pa < 0 || pb < 0 {
			return -1
		}
		ia, ib := p.Instrs[pa], p.Instrs[pb]
		if ia.Part != ib.Part {
			return -1
		}
		// Same anchor lineage: the first slice-arg variable must coincide
		// so that positions align pairwise.
		sa, sb := plan.SliceArgs(ia.Op), plan.SliceArgs(ib.Op)
		if len(sa) > 0 && len(sb) > 0 {
			if ia.Args[sa[0]] != ib.Args[sb[0]] {
				return -1
			}
		}
	}
	return int(src)
}

// partsCoverFull reports whether the members' partitions tile the full
// [0,1) range exactly (no overlap, no gap). Members are checked in
// partition order, which can differ from plan order once clones of clones
// have been appended.
func partsCoverFull(members []*plan.Instr) bool {
	ordered := slices.Clone(members)
	slices.SortStableFunc(ordered, func(a, b *plan.Instr) int {
		switch {
		case a.Part.Before(b.Part):
			return -1
		case b.Part.Before(a.Part):
			return 1
		}
		return 0
	})
	return plan.PartsTile(len(ordered), func(i int) plan.Part { return ordered[i].Part })
}

// removePackIntoGroupBy removes an exchange union whose output feeds a
// group-by subgraph: the group-by clones (and their dependent grouped
// aggregates and key extractions) are re-cloned once per pack input, their
// downstream partial packs rewired, and the pack (plus any sibling packs
// carrying co-partitioned aggregate values) dropped. This is the medium
// mutation flowing into the advanced pattern — the paper's "operator
// parallelization occurs as a result of using the medium mutation, where the
// operator is in the data flow dependent path of the expensive exchange
// union operator" (§2.1).
func removePackIntoGroupBy(p *plan.Plan, ui int, producer []int32) (*plan.Plan, error) {
	inputs := p.Instrs[ui].Args
	out := p.Instrs[ui].Rets[0]

	// Classify consumers: group-by members and aggregates consuming the
	// packed value directly as their values input (handled through their
	// group-by member below).
	var gMembers []int
	for _, ci := range p.Consumers(out) {
		c := p.Instrs[ci]
		if (c.Op != plan.OpGroupBy && c.Op != plan.OpAggrGrouped) || c.Args[0] != out {
			return nil, errNotApplicable
		}
		if c.Op == plan.OpGroupBy {
			gMembers = append(gMembers, ci)
		}
	}
	if len(gMembers) == 0 || !partsCoverFull(instrsAt(p, gMembers)) {
		return nil, errNotApplicable
	}

	// One slot per aggregate of a member; members must align slot by slot
	// (same order, aux and values source), and each result feeds exactly one
	// partial pack. Instructions are named by index, as in RemovePack: the
	// checks read p, the rewrite edits its clone.
	type aggSlot struct {
		aux     plan.AggrAux
		vals    plan.VarID // source values var: `out` or a sibling pack output
		sibling int        // the co-partitioned pack producing vals, if not `out` (else -1)
		pack    int        // the partial pack the members' results feed
		old     []plan.VarID
	}
	var slots []aggSlot
	keysPack := -1
	var oldKeys []plan.VarID
	removed := []int{ui}
	solePack := func(r plan.VarID) int {
		cons := p.Consumers(r)
		if len(cons) != 1 || p.Instrs[cons[0]].Op != plan.OpPack {
			return -1
		}
		return cons[0]
	}
	for mi, gi := range gMembers {
		aggrs, keys, ok := groupPattern(p, p.Instrs[gi])
		if !ok || len(keys) > 1 {
			return nil, errNotApplicable
		}
		if mi == 0 {
			for _, ai := range aggrs {
				a := p.Instrs[ai]
				aux, _ := a.Aux.(plan.AggrAux)
				s := aggSlot{aux: aux, vals: a.Args[0], sibling: -1, pack: solePack(a.Rets[0])}
				if s.vals != out {
					s.sibling = findSiblingPack(p, producer, s.vals, inputs)
				}
				if s.pack < 0 || (s.vals != out && s.sibling < 0) {
					return nil, errNotApplicable
				}
				slots = append(slots, s)
			}
			if len(keys) == 1 {
				if keysPack = solePack(p.Instrs[keys[0]].Rets[0]); keysPack < 0 {
					return nil, errNotApplicable
				}
			}
		}
		if len(aggrs) != len(slots) || (len(keys) == 1) != (keysPack >= 0) {
			return nil, errNotApplicable
		}
		for si, ai := range aggrs {
			a := p.Instrs[ai]
			if aux, _ := a.Aux.(plan.AggrAux); slots[si].aux != aux || slots[si].vals != a.Args[0] {
				return nil, errNotApplicable
			}
			slots[si].old = append(slots[si].old, a.Rets[0])
		}
		for _, ki := range keys {
			oldKeys = append(oldKeys, p.Instrs[ki].Rets[0])
		}
		removed = append(append(append(removed, aggrs...), keys...), gi)
	}

	// Build the per-input clones and rewire the partial packs to them.
	cp := p.Derive()
	rw := newRewrite(cp)
	for _, i := range removed {
		rw.remove(i)
	}
	newAggRets := make([][]plan.VarID, len(slots)) // per slot, per input
	var newKeyRets []plan.VarID
	var siblings []int
	for i, inVar := range inputs {
		gv := rw.emit(plan.OpGroupBy, []plan.VarID{inVar}, nil, "propagated groupby", plan.KindGroups)[0]
		for si, s := range slots {
			valsArg := inVar
			if s.sibling >= 0 {
				valsArg = cp.Instrs[s.sibling].Args[i]
			}
			av := rw.emit(plan.OpAggrGrouped, []plan.VarID{valsArg, gv}, s.aux, "propagated aggrgrouped", plan.KindColumn)
			newAggRets[si] = append(newAggRets[si], av[0])
		}
		if keysPack >= 0 {
			kv := rw.emit(plan.OpGroupKeys, []plan.VarID{gv}, nil, "propagated groupkeys", plan.KindColumn)
			newKeyRets = append(newKeyRets, kv[0])
		}
	}
	for si, s := range slots {
		splice(rw.own(s.pack), s.old, newAggRets[si])
		if s.sibling >= 0 {
			siblings = append(siblings, s.sibling)
		}
	}
	if keysPack >= 0 {
		splice(rw.own(keysPack), oldKeys, newKeyRets)
	}
	rw.dropDead(siblings)
	return rw.commit()
}
