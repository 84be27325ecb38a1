package exec

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/algebra"
	"repro/internal/plan"
	"repro/internal/sim"
)

// OpExec is one profiled operator execution: execution time, memory claim
// and thread affiliation — the profiling data of §2 ("Run-time environment").
type OpExec struct {
	Instr   int // index into the executed plan's instruction list
	Op      plan.OpCode
	StartNs float64
	EndNs   float64
	Core    int
	Work    algebra.Work
}

// Duration returns the operator's virtual execution time.
func (o OpExec) Duration() float64 { return o.EndNs - o.StartNs }

// Profile collects one plan execution's measurements. A replayed run's Ops
// are its recording's, shared: read them, never write them.
type Profile struct {
	Ops     []OpExec
	StartNs float64
	EndNs   float64
	Machine sim.Config
	// replayOf is the recorded run a replayed run shares Ops with; Ops' times
	// are on its clock.
	replayOf *Profile
}

// Makespan returns the plan's response time in virtual ns.
func (p *Profile) Makespan() float64 { return p.EndNs - p.StartNs }

// TotalBusyNs returns the summed operator execution time (the "total CPU
// core time" of the paper's tomograph captions).
func (p *Profile) TotalBusyNs() float64 {
	var sum float64
	for _, o := range p.Ops {
		sum += o.Duration()
	}
	return sum
}

// Utilization returns multi-core utilization: the fraction of available
// hardware-thread time actually used during the query — the paper's
// "parallelism usage" (35.7% for AP vs 72.2% for HP on Q14, Figures 19/20).
// The denominator is logical cores so the ratio stays within [0, 1] under
// SMT.
func (p *Profile) Utilization() float64 {
	mk := p.Makespan()
	if mk <= 0 {
		return 0
	}
	return p.TotalBusyNs() / (mk * float64(p.Machine.LogicalCores()))
}

// MostExpensive returns the plan-instruction index with the longest
// execution time — the mutation target of adaptive parallelization — and
// that duration. Ties break toward the earliest instruction, which keeps
// adaptation deterministic.
func (p *Profile) MostExpensive() (instr int, dur float64) {
	instr = -1
	for _, o := range p.Ops {
		if o.Duration() > dur {
			dur = o.Duration()
			instr = o.Instr
		}
	}
	return instr, dur
}

// tomographGlyph maps operators to the colour classes of Figures 19/20:
// select (green), join (blue), exchange union (brown), other.
func tomographGlyph(op plan.OpCode) byte {
	switch op {
	case plan.OpSelect, plan.OpSelectCand, plan.OpLikeSelect:
		return 'S'
	case plan.OpJoin:
		return 'J'
	case plan.OpPack:
		return 'U'
	case plan.OpFetch, plan.OpFetchPos:
		return 'f'
	case plan.OpGroupBy, plan.OpAggrGrouped, plan.OpAggr, plan.OpMergeAggr, plan.OpGroupMerge:
		return 'g'
	case plan.OpCalcVV, plan.OpCalcSV, plan.OpCalcSSV, plan.OpCalcSS:
		return 'c'
	}
	return '.'
}

// Tomograph renders an ASCII per-core execution timeline of the profile —
// the textual analogue of the paper's tomograph visualizations (Figures
// 19/20): one row per hardware thread that ran anything, one glyph per time
// bucket (S=select, J=join, U=exchange union, f=fetch, g=grouping, c=calc,
// space=idle), followed by the parallelism-usage summary line. A replayed
// run renders its recording: the same timeline, on the clock its Ops are on.
func (p *Profile) Tomograph(width int) string {
	if p.replayOf != nil {
		return p.replayOf.Tomograph(width)
	}
	if width <= 0 {
		width = 96
	}
	mk := p.Makespan()
	if mk <= 0 || len(p.Ops) == 0 {
		return "(empty profile)\n"
	}
	coreSet := map[int][]OpExec{}
	for _, o := range p.Ops {
		coreSet[o.Core] = append(coreSet[o.Core], o)
	}
	cores := make([]int, 0, len(coreSet))
	for c := range coreSet {
		cores = append(cores, c)
	}
	sort.Ints(cores)

	var sb strings.Builder
	for _, c := range cores {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		for _, o := range coreSet[c] {
			lo := int(float64(width) * (o.StartNs - p.StartNs) / mk)
			hi := int(float64(width) * (o.EndNs - p.StartNs) / mk)
			if hi <= lo {
				hi = lo + 1
			}
			if hi > width {
				hi = width
			}
			g := tomographGlyph(o.Op)
			for i := lo; i < hi; i++ {
				row[i] = g
			}
		}
		fmt.Fprintf(&sb, "core %3d |%s|\n", c, string(row))
	}
	fmt.Fprintf(&sb, "%d operators; total core time %.3f ms; makespan %.3f ms; parallelism usage %.1f%%\n",
		len(p.Ops), p.TotalBusyNs()/1e6, mk/1e6, p.Utilization()*100)
	return sb.String()
}
