package core

import (
	"errors"

	"repro/internal/exec"
	"repro/internal/plan"
)

// MutationConfig tunes the plan-mutation policy.
type MutationConfig struct {
	// PackInputThreshold suppresses exchange-union removal above this input
	// count (15 in the paper's implementation, §2.3).
	PackInputThreshold int
	// MinPartTuples stops splitting operators whose input is already small;
	// partitioning a few hundred tuples only buys dispatch overhead.
	MinPartTuples int64
	// SplitFactor is how many clones replace an expensive operator per
	// mutation. The paper uses 2 ("a single new operator per invocation")
	// and discusses larger factors as the lever for faster convergence
	// (§4.3, "How to lower number of convergence runs?").
	SplitFactor int
}

// DefaultMutationConfig mirrors the paper's implementation choices, with
// one calibration difference: the exchange-union input threshold defaults
// to 33 (logical cores + 1) rather than the paper's 15 MAL parameters. Our
// packs gain exactly one input per binary split, so 15 would freeze plans
// at DOP 15 with the expensive pack still on the critical path; 33 lets the
// medium mutation fire all the way to machine-wide DOP while still capping
// plan explosion. Set PackInputThreshold to 15 to reproduce the paper's
// suppression behaviour exactly.
func DefaultMutationConfig() MutationConfig {
	return MutationConfig{PackInputThreshold: 33, MinPartTuples: 2048, SplitFactor: 2}
}

// Mutation describes what a mutation step did.
type Mutation struct {
	Kind  MutationKind
	Instr int         // index of the mutated instruction in the OLD plan
	Op    plan.OpCode // opcode of the mutated instruction
}

// Mutator turns execution feedback into plan mutations.
type Mutator struct {
	Cfg MutationConfig
}

// NewMutator returns a mutator with cfg (zero fields replaced by defaults).
func NewMutator(cfg MutationConfig) *Mutator {
	def := DefaultMutationConfig()
	if cfg.PackInputThreshold == 0 {
		cfg.PackInputThreshold = def.PackInputThreshold
	}
	if cfg.MinPartTuples == 0 {
		cfg.MinPartTuples = def.MinPartTuples
	}
	if cfg.SplitFactor < 2 {
		cfg.SplitFactor = def.SplitFactor
	}
	return &Mutator{Cfg: cfg}
}

// MutateMostExpensive applies one adaptation step: it walks the plan's
// operators from most to least expensive (per the profile) and applies the
// first applicable mutation — parallelizing the expensive operator (§2.1's
// guiding principle). When the most expensive operator is an exchange union
// over more inputs than the threshold, the step is a deliberate no-op
// (suppression): the plan stops growing, as in the paper, and the
// convergence budget drains. It drains without searching again: the answer
// is a function of p and the profile inputs read here, and a Session reuses
// it while the same plan object re-runs with equal inputs.
//
// p is never modified. A mutated plan is derived from p and shares its
// unchanged instructions (plan.Derive). A MutationNone result with a nil
// error means no operator could be (or should be) mutated, and returns p
// itself.
func (m *Mutator) MutateMostExpensive(p *plan.Plan, prof *exec.Profile) (*plan.Plan, Mutation, error) {
	cands := make(candHeap, len(prof.Ops))
	for i, o := range prof.Ops {
		cands[i] = cand{dur: o.Duration(), pos: int32(i)}
	}
	cands.init()
	for len(cands) > 0 {
		o := &prof.Ops[cands.pop().pos]
		if o.Instr < 0 || o.Instr >= len(p.Instrs) {
			continue
		}
		in := p.Instrs[o.Instr]
		switch {
		case in.Op == plan.OpPack:
			np, err := RemovePack(p, o.Instr, m.Cfg.PackInputThreshold)
			if errors.Is(err, ErrSuppressed) {
				// Pack growth capped: the pack stays the most expensive
				// operator and adaptation stops changing the plan (§2.3).
				return p, Mutation{Kind: MutationNone, Instr: o.Instr, Op: in.Op}, nil
			}
			if errors.Is(err, errNotApplicable) {
				continue
			}
			if err != nil {
				return nil, Mutation{}, err
			}
			return np, Mutation{Kind: MutationMedium, Instr: o.Instr, Op: in.Op}, nil

		case plan.BasicPartitionable(in.Op) || plan.AdvancedPartitionable(in.Op):
			if o.Work.TuplesIn < 2*m.Cfg.MinPartTuples {
				continue // too small to split profitably
			}
			np, kind, err := Parallelize(p, o.Instr, m.Cfg.SplitFactor)
			if errors.Is(err, errNotApplicable) {
				continue
			}
			if err != nil {
				return nil, Mutation{}, err
			}
			return np, Mutation{Kind: kind, Instr: o.Instr, Op: in.Op}, nil
		}
	}
	return p, Mutation{Kind: MutationNone, Instr: -1}, nil
}

// cand is one profiled operator in the mutation walk: its duration and its
// index in the profile's Ops.
type cand struct {
	dur float64
	pos int32
}

// candHeap yields a profile's operators most expensive first, in exactly the
// order a stable sort by duration descending would give (ties in profile
// order). It is a binary heap built in O(n), so a walk that stops at its
// first or second candidate — the usual case — sorts nothing.
type candHeap []cand

// first reports whether a comes before b in the walk.
func (h candHeap) first(a, b int) bool {
	if h[a].dur != h[b].dur {
		return h[a].dur > h[b].dur
	}
	return h[a].pos < h[b].pos
}

func (h candHeap) down(i int) {
	for {
		l, top := 2*i+1, i
		if l < len(h) && h.first(l, top) {
			top = l
		}
		if r := l + 1; r < len(h) && h.first(r, top) {
			top = r
		}
		if top == i {
			return
		}
		h[i], h[top] = h[top], h[i]
		i = top
	}
}

func (h candHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *candHeap) pop() cand {
	q := *h
	c := q[0]
	q[0] = q[len(q)-1]
	*h = q[:len(q)-1]
	h.down(0)
	return c
}
