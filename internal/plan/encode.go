package plan

import (
	"encoding/binary"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/wire"
)

// Canonical plan serialization. The persistent convergence store keeps a
// converged session's best plan on disk and ships it between daemons, so the
// encoding must be (a) complete — every field execution depends on,
// including the SSA ret vars that ComputeDiff and the executor key on, and
// (b) canonical — one plan has exactly one byte representation, so
// export/import round trips are bit-identical and fingerprint-keyed records
// dedupe by content.
//
// The format is versioned independently of the store's record format:
// encodeVersion changes when the plan representation itself grows (a new
// opcode aux, say) — or when plans written by older builds must not be
// trusted — and Decode rejects versions it does not know with an error,
// never a guess.

// encodeVersion is the current canonical-form version. Version 2 has
// version 1's layout; the bump attests the engine that produced the plan:
// builds before the row-space rule (core.RemovePack) could converge onto, and
// persist or replicate, plans that return wrong results, so their records
// must fail to decode and the query re-adapt.
const encodeVersion = 2

// encodeMagic guards against feeding arbitrary bytes to Decode.
var encodeMagic = [4]byte{'A', 'P', 'Q', 'P'}

// Aux discriminators of the canonical form. Append-only: renumbering any of
// these is a format break and requires bumping encodeVersion.
const (
	auxNone uint8 = iota
	auxBind
	auxConst
	auxSelect
	auxLike
	auxCalc
	auxAggr
	auxSort
)

// Encode renders p in the canonical binary form. Encoding is deterministic:
// structurally identical plans (same vars, instructions, auxes, parts,
// comments) produce identical bytes.
func Encode(p *Plan) []byte {
	// Rough size: header + per-var and per-instr payloads; the buffer grows
	// as needed, this only avoids early re-allocations.
	buf := make([]byte, 0, 64+8*len(p.kinds)+32*len(p.Instrs))
	buf = append(buf, encodeMagic[:]...)
	buf = append(buf, encodeVersion)
	buf = binary.AppendUvarint(buf, uint64(len(p.kinds)))
	for v := range p.kinds {
		buf = append(buf, uint8(p.kinds[v]))
		buf = wire.AppendString(buf, p.name(VarID(v)))
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Instrs)))
	for _, in := range p.Instrs {
		buf = append(buf, uint8(in.Op))
		buf = binary.AppendUvarint(buf, uint64(len(in.Args)))
		for _, a := range in.Args {
			buf = binary.AppendUvarint(buf, uint64(a))
		}
		buf = binary.AppendUvarint(buf, uint64(len(in.Rets)))
		for _, r := range in.Rets {
			buf = binary.AppendUvarint(buf, uint64(r))
		}
		buf = binary.AppendUvarint(buf, in.Part.LoNum)
		buf = binary.AppendUvarint(buf, in.Part.HiNum)
		buf = binary.AppendUvarint(buf, in.Part.Den)
		buf = wire.AppendString(buf, in.Comment)
		buf = appendAux(buf, in.Aux)
	}
	return buf
}

// auxNames names the discriminators in error messages.
var auxNames = [...]string{"no aux", "BindAux", "ConstAux", "SelectAux", "LikeAux", "CalcAux", "AggrAux", "SortAux"}

// auxKindOf returns the discriminator of an aux value — the one place that
// knows which aux types exist; ok is false for a type the format cannot
// carry.
func auxKindOf(aux any) (kind uint8, ok bool) {
	switch aux.(type) {
	case nil:
		return auxNone, true
	case BindAux:
		return auxBind, true
	case ConstAux:
		return auxConst, true
	case SelectAux:
		return auxSelect, true
	case LikeAux:
		return auxLike, true
	case CalcAux:
		return auxCalc, true
	case AggrAux:
		return auxAggr, true
	case SortAux:
		return auxSort, true
	}
	return 0, false
}

func appendAux(buf []byte, aux any) []byte {
	kind, ok := auxKindOf(aux)
	if !ok {
		// Unknown aux types cannot round-trip; dropping one here would let a
		// future operator silently corrupt the store, so fail loudly at
		// encode time.
		panic(fmt.Sprintf("plan: Encode: unknown aux type %T", aux))
	}
	buf = append(buf, kind)
	switch a := aux.(type) {
	case BindAux:
		buf = wire.AppendString(buf, a.Table)
		buf = wire.AppendString(buf, a.Column)
	case ConstAux:
		buf = binary.AppendVarint(buf, a.Value)
	case SelectAux:
		buf = binary.AppendVarint(buf, a.Pred.Lo)
		buf = binary.AppendVarint(buf, a.Pred.Hi)
		buf = wire.AppendBool(wire.AppendBool(buf, a.Pred.LoIncl), a.Pred.HiIncl)
	case LikeAux:
		buf = wire.AppendString(buf, a.Pattern)
		buf = wire.AppendBool(append(buf, uint8(a.Kind)), a.Anti)
	case CalcAux:
		buf = append(buf, uint8(a.Op))
		buf = binary.AppendVarint(buf, a.Scalar)
		buf = wire.AppendBool(buf, a.ScalarLeft)
	case AggrAux:
		buf = append(buf, uint8(a.Func))
	case SortAux:
		buf = wire.AppendBool(buf, a.Desc)
	}
	return buf
}

// Decode parses the canonical form back into a plan. The result is
// structurally identical to the encoded plan: re-encoding it reproduces the
// input bytes exactly.
func Decode(data []byte) (*Plan, error) {
	r := wire.NewReader(data)
	if magic := r.Raw(len(encodeMagic)); r.Err() == nil && [4]byte(magic) != encodeMagic {
		return nil, fmt.Errorf("plan: decode: bad magic %q (not a canonical plan)", magic)
	}
	if ver := r.Byte(); r.Err() == nil && ver != encodeVersion {
		return nil, fmt.Errorf("plan: decode: unsupported plan-format version %d (this build reads %d)", ver, encodeVersion)
	}
	p, err := decodePlan(r)
	if err != nil {
		return nil, fmt.Errorf("plan: decode: %w", err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("plan: decode: %d trailing bytes after plan", r.Len())
	}
	return p, nil
}

func decodePlan(r *wire.Reader) (*Plan, error) {
	nvars := r.Uvarint()
	if nvars > uint64(r.Len()) {
		return nil, fmt.Errorf("var count %d exceeds input", nvars)
	}
	p := New()
	for i := uint64(0); i < nvars && r.Err() == nil; i++ {
		kind := Kind(r.Byte())
		if kind > KindGroups {
			return nil, fmt.Errorf("var %d: unknown kind %d", i, kind)
		}
		p.NewVar(kind, r.Str())
	}
	ninstrs := r.Uvarint()
	if ninstrs > uint64(r.Len()) {
		return nil, fmt.Errorf("instruction count %d exceeds input", ninstrs)
	}
	for i := uint64(0); i < ninstrs && r.Err() == nil; i++ {
		in, err := decodeInstr(r, nvars)
		if err != nil {
			return nil, fmt.Errorf("instruction %d: %w", i, err)
		}
		p.Append(in)
	}
	return p, r.Err()
}

func decodeInstr(r *wire.Reader, nvars uint64) (*Instr, error) {
	in := &Instr{Op: OpCode(r.Byte())}
	if in.Op > OpResult {
		return nil, fmt.Errorf("unknown opcode %d", in.Op)
	}
	var err error
	if in.Args, err = decodeVars(r, nvars); err != nil {
		return nil, fmt.Errorf("args: %w", err)
	}
	if in.Rets, err = decodeVars(r, nvars); err != nil {
		return nil, fmt.Errorf("rets: %w", err)
	}
	in.Part = Part{LoNum: r.Uvarint(), HiNum: r.Uvarint(), Den: r.Uvarint()}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if in.Part.Den == 0 || in.Part.HiNum > in.Part.Den || in.Part.LoNum > in.Part.HiNum {
		return nil, fmt.Errorf("invalid part [%d/%d,%d/%d)", in.Part.LoNum, in.Part.Den, in.Part.HiNum, in.Part.Den)
	}
	in.Comment = r.Str()
	in.Aux, err = decodeAux(r)
	return in, err
}

func decodeVars(r *wire.Reader, nvars uint64) ([]VarID, error) {
	n := r.Uvarint()
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("list length %d exceeds input", n)
	}
	if n == 0 {
		return nil, r.Err()
	}
	out := make([]VarID, n)
	for i := range out {
		v := r.Uvarint()
		if v >= nvars {
			return nil, fmt.Errorf("variable %d out of range (plan has %d)", v, nvars)
		}
		out[i] = VarID(v)
	}
	return out, r.Err()
}

// decodeAux reads the fields of each aux in the order appendAux writes them:
// the reads in a composite literal run in lexical order.
func decodeAux(r *wire.Reader) (any, error) {
	var aux any
	switch kind := r.Byte(); kind {
	case auxNone:
	case auxBind:
		aux = BindAux{Table: r.Str(), Column: r.Str()}
	case auxConst:
		aux = ConstAux{Value: r.Varint()}
	case auxSelect:
		aux = SelectAux{Pred: algebra.Range{Lo: r.Varint(), Hi: r.Varint(), LoIncl: r.Bool(), HiIncl: r.Bool()}}
	case auxLike:
		aux = LikeAux{Pattern: r.Str(), Kind: algebra.LikeKind(r.Byte()), Anti: r.Bool()}
	case auxCalc:
		aux = CalcAux{Op: algebra.CalcOp(r.Byte()), Scalar: r.Varint(), ScalarLeft: r.Bool()}
	case auxAggr:
		aux = AggrAux{Func: algebra.AggrFunc(r.Byte())}
	case auxSort:
		aux = SortAux{Desc: r.Bool()}
	default:
		return nil, fmt.Errorf("unknown aux discriminator %d", kind)
	}
	return aux, r.Err()
}
