package plan

import "fmt"

// TopoSort reorders the instruction list into a valid topological order of
// the dataflow graph (def before use), stable with respect to the current
// order: among ready instructions the earliest-listed runs first. Mutations
// use it to restore the def-before-use invariant after rewiring consumers;
// stability keeps pack-argument partition order intact.
//
// Every table lives in one int32 slab (producer per variable; in-degree,
// dependent-list offsets, fill counts and dedup stamps per instruction; the
// dependent lists themselves): TopoSort runs once per mutation on the
// adaptive cold path, where its bookkeeping was a measurable allocator.
//
// It returns an error if the graph has a cycle (which would indicate a bug
// in a mutation).
func (p *Plan) TopoSort() error {
	n, nv, nargs := len(p.Instrs), p.NVars(), 0
	for _, in := range p.Instrs {
		nargs += len(in.Args)
	}
	slab := make([]int32, nv+4*n+1+nargs)
	producer, rest := slab[:nv], slab[nv:]
	indeg, edgeCount, fill, stamp, edges := rest[:n], rest[n:2*n+1], rest[2*n+1:3*n+1], rest[3*n+1:4*n+1:4*n+1], rest[4*n+1:]
	for i := range producer {
		producer[i] = -1
	}
	for i, in := range p.Instrs {
		for _, r := range in.Rets {
			producer[r] = int32(i)
		}
	}
	// Count edges per producer (a consecutive duplicate argument is skipped
	// cheaply), then carve each producer's dependents out of edges.
	for i, in := range p.Instrs {
		seen := int32(-1)
		for _, a := range in.Args {
			src := producer[a]
			if src < 0 {
				return fmt.Errorf("plan: instr %d (%s) consumes unproduced var %s", i, in.Op, p.NameOf(a))
			}
			if src == int32(i) {
				return fmt.Errorf("plan: instr %d (%s) consumes its own output", i, in.Op)
			}
			if src != seen {
				seen = src
				edgeCount[src+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		edgeCount[i+1] += edgeCount[i]
	}
	for i, in := range p.Instrs {
		seen := int32(-1)
		for _, a := range in.Args {
			if src := producer[a]; src != seen {
				seen = src
				edges[edgeCount[src]+fill[src]] = int32(i)
				fill[src]++
			}
		}
	}
	// indeg counts DISTINCT producers per consumer; duplicate edges (one
	// instruction consuming two results of the same producer through
	// non-consecutive args) are dropped from the dependent list, found by
	// stamping each dependent with the producer that last listed it.
	dependents := func(src int32) []int32 { return edges[edgeCount[src] : edgeCount[src]+fill[src]] }
	for src := int32(0); src < int32(n); src++ {
		deps := dependents(src)
		w := 0
		for _, d := range deps {
			if stamp[d] != src+1 {
				stamp[d] = src + 1
				deps[w] = d
				w++
				indeg[d]++
			}
		}
		fill[src] = int32(w)
	}

	// Stable Kahn's algorithm: ready instructions pop smallest original
	// index first, from a binary min-heap (in the stamps' storage: they are
	// done with, and at most n instructions are ever ready).
	ready := readyHeap(stamp[:0])
	for i := int32(0); i < int32(n); i++ {
		if indeg[i] == 0 {
			ready.push(i)
		}
	}
	out := make([]*Instr, 0, n)
	for len(ready) > 0 {
		idx := ready.pop()
		out = append(out, p.Instrs[idx])
		for _, d := range dependents(idx) {
			indeg[d]--
			if indeg[d] == 0 {
				ready.push(d)
			}
		}
	}
	if len(out) != n {
		return fmt.Errorf("plan: dependency cycle involving %d instructions", n-len(out))
	}
	p.Instrs = out
	return nil
}

// readyHeap is a binary min-heap of instruction indices.
type readyHeap []int32

func (h *readyHeap) push(v int32) {
	*h = append(*h, v)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if q[parent] <= q[i] {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
}

func (h *readyHeap) pop() int32 {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		l, min := 2*i+1, i
		if l < len(q) && q[l] < q[min] {
			min = l
		}
		if r := l + 1; r < len(q) && q[r] < q[min] {
			min = r
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	*h = q
	return top
}
