package plan

// Structural plan diffing for arena adoption.
//
// A mutation derives its input plan, removes a few instructions, appends
// their replacements (with freshly allocated result variables), and restores
// topological order — so a mutated child shares almost all of its structure
// with its parent. ComputeDiff recovers that sharing after the fact: it
// matches child instructions to parent instructions that are structurally
// identical AND whose whole producing subtree matched, so a matched
// instruction is guaranteed to compute the same value over the same inputs
// in both plans. The diff has one consumer: the execution engine compiles the
// child from scratch and uses the match to move the parent's idle arena under
// it. A matched instruction's first run in the child writes the buffer its
// last run in the parent settled — or, when the engine's reuse rule holds for
// it, does not run at all and takes that run's value and Work.

// Diff maps the instructions of a child plan onto a parent plan.
type Diff struct {
	// ParentOf[ci] is the parent instruction index child instruction ci is
	// matched to, or -1 when ci is new or mutated (or consumes a mutated
	// subtree).
	ParentOf []int32
}

// instrEqual reports structural identity: same opcode, aux parameters,
// partition range, and identical argument/result variable lists. Comments
// are cosmetic provenance and ignored. Variable identity is meaningful
// because mutations copy the variable table: a child's variable v < parent
// NVars IS the parent's v.
func instrEqual(a, b *Instr) bool {
	if a.Op != b.Op || a.Aux != b.Aux || a.Part != b.Part ||
		len(a.Args) != len(b.Args) || len(a.Rets) != len(b.Rets) {
		return false
	}
	for i, v := range a.Args {
		if b.Args[i] != v {
			return false
		}
	}
	for i, v := range a.Rets {
		if b.Rets[i] != v {
			return false
		}
	}
	return true
}

// ComputeDiff matches child instructions against parent. The match is
// subtree-deep: an instruction only matches when it is structurally
// identical to a parent instruction and every argument is produced by a
// matched instruction — the inductive fingerprint that makes a match mean
// "same value at runtime". Both plans must be individually consistent (the
// engine validates the child before it diffs); ComputeDiff itself never
// panics on malformed input, it just matches less. The signature is pinned by
// bench/trace.go:392, which times it as plan.diff_us.
//
// Cost is O(instructions + edges) with no hashing: candidates are located
// through the SSA result variable (unique per plan), result-less
// instructions (OpResult) through the single result marker.
func ComputeDiff(parent, child *Plan) *Diff {
	d := &Diff{ParentOf: make([]int32, len(child.Instrs))}
	// Parent lookup: producing instruction per variable, and the result
	// marker. Child variables are a superset of parent variables (Clone
	// copies the table, mutations only append), so parent indices apply.
	producerOf := make([]int32, parent.NVars())
	for i := range producerOf {
		producerOf[i] = -1
	}
	parentResult := int32(-1)
	for i, in := range parent.Instrs {
		for _, r := range in.Rets {
			producerOf[r] = int32(i)
		}
		if in.Op == OpResult {
			parentResult = int32(i)
		}
	}
	// producerMatched[v] reports that child v's producer is a matched
	// instruction — the inductive step. Child plans are topologically
	// ordered (def before use), so producers are classified before their
	// consumers are visited.
	producerMatched := make([]bool, child.NVars())
	for ci, in := range child.Instrs {
		d.ParentOf[ci] = -1
		pi := int32(-1)
		switch {
		case len(in.Rets) > 0:
			if r := in.Rets[0]; int(r) < len(producerOf) {
				pi = producerOf[r]
			}
		case in.Op == OpResult:
			pi = parentResult
		}
		if pi < 0 || !instrEqual(in, parent.Instrs[pi]) {
			continue
		}
		subtree := true
		for _, a := range in.Args {
			if int(a) >= len(producerMatched) || !producerMatched[a] {
				subtree = false
				break
			}
		}
		if !subtree {
			continue
		}
		d.ParentOf[ci] = pi
		for _, r := range in.Rets {
			producerMatched[r] = true
		}
	}
	return d
}
