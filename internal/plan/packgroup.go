package plan

// Pack-group identification for the zero-copy exchange.
//
// A pack group is an exchange union whose inputs are exactly the sibling
// clones of one materializing instruction — the shapes the two mutation
// schemes produce. For such a pack the executor can pre-size one shared
// result buffer, let each clone write its disjoint range in place, and serve
// the pack as an O(1) view with a dense head instead of a concatenating
// copy. Only materializing operators with positionally determined output
// ranges qualify: fetches and calcs, whose output length equals their
// (sliced) anchor input length. Selects do not — their output size is
// data-dependent, so oid packs keep copying (and keep their §2.3 cost, which
// is what drives the medium mutation).

// PackGroup describes one safe-to-share exchange union.
type PackGroup struct {
	// Pack is the instruction index of the exchange union.
	Pack int
	// Clones are the instruction indices of the sibling clones, in pack
	// argument order (= partition order, the §2.3 ordering invariant): sliced
	// clones tile one shared anchor (Figure 3), propagated clones cover an
	// anchor each (Figure 5). Clone m's output is its anchor's length under
	// its own Part either way.
	Clones []int
}

// Producers returns the producing instruction index per variable (-1 for
// unproduced variables). It is the slice-based lookup compilation and the
// pack-group scan share — a map would re-hash every variable on every compile.
func (p *Plan) Producers() []int32 {
	producer := make([]int32, p.NVars())
	for i := range producer {
		producer[i] = -1
	}
	for i, in := range p.Instrs {
		for _, r := range in.Rets {
			producer[r] = int32(i)
		}
	}
	return producer
}

// PackGroups identifies every pack group in the plan. Packs that mix clone
// families, consume non-materializing producers, or whose partitions do not
// tile the full range are not groups — the executor packs them by copying,
// exactly as before.
func (p *Plan) PackGroups() []PackGroup {
	producer := p.Producers()
	var out []PackGroup
	claimed := make([]bool, len(p.Instrs)) // clone instruction already in a group
	for k := range p.Instrs {
		g, ok := p.PackGroupAt(k, producer, claimed)
		if !ok {
			continue
		}
		for _, c := range g.Clones {
			claimed[c] = true
		}
		out = append(out, g)
	}
	return out
}

// PackGroupAt evaluates whether the pack at instruction index k roots a pack
// group, given the plan's producer index (see Producers) and the claim state
// of earlier groups. It mirrors one step of PackGroups' greedy plan-order
// scan: on success the CALLER must mark the returned clones claimed before
// evaluating later packs. exec's buildSchedule runs the same scan with the
// producer index it already holds.
func (p *Plan) PackGroupAt(k int, producer []int32, claimed []bool) (PackGroup, bool) {
	pk := p.Instrs[k]
	if pk.Op != OpPack || len(pk.Args) < 2 {
		return PackGroup{}, false
	}
	if len(pk.Rets) != 1 || p.KindOf(pk.Rets[0]) != KindColumn || p.KindOf(pk.Args[0]) != KindColumn {
		return PackGroup{}, false
	}
	return p.packGroupAt(k, pk, producer, claimed)
}

func (p *Plan) packGroupAt(k int, pk *Instr, producer []int32, claimed []bool) (PackGroup, bool) {
	clones := make([]int, 0, len(pk.Args))
	seen := make(map[VarID]bool, len(pk.Args))
	var proto *Instr
	for _, a := range pk.Args {
		if seen[a] {
			return PackGroup{}, false // duplicated input: ranges would overlap
		}
		seen[a] = true
		ci := int(producer[a])
		if ci < 0 || claimed[ci] {
			return PackGroup{}, false
		}
		c := p.Instrs[ci]
		if len(c.Rets) != 1 || !c.Op.spec().shares {
			return PackGroup{}, false
		}
		if proto == nil {
			proto = c
		} else if c.Op != proto.Op || c.Aux != proto.Aux {
			return PackGroup{}, false
		}
		clones = append(clones, ci)
	}

	// Sliced shape: identical argument lists, Parts tiling the full range in
	// pack-argument order.
	if sameArgs(p.Instrs[clones[0]], p.Instrs, clones) {
		if !PartsTile(len(clones), func(i int) Part { return p.Instrs[clones[i]].Part }) {
			return PackGroup{}, false
		}
		return PackGroup{Pack: k, Clones: clones}, true
	}

	// Propagated shape: full-range clones whose non-anchor arguments agree
	// (shared fetch target / calc operand), anchors per clone.
	anchor := make(map[int]bool)
	for _, ai := range SliceArgs(proto.Op) {
		anchor[ai] = true
	}
	for _, ci := range clones {
		c := p.Instrs[ci]
		if !c.Part.IsFull() || len(c.Args) != len(proto.Args) {
			return PackGroup{}, false
		}
		for ai, a := range c.Args {
			if !anchor[ai] && a != proto.Args[ai] {
				return PackGroup{}, false
			}
		}
	}
	return PackGroup{Pack: k, Clones: clones}, true
}

// sameArgs reports whether every clone has the prototype's exact argument
// list.
func sameArgs(proto *Instr, instrs []*Instr, clones []int) bool {
	for _, ci := range clones {
		c := instrs[ci]
		if len(c.Args) != len(proto.Args) {
			return false
		}
		for i, a := range c.Args {
			if a != proto.Args[i] {
				return false
			}
		}
	}
	return true
}
