package plan

import (
	"encoding/binary"
	"fmt"

	"repro/internal/algebra"
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
	buf = appendUvarint(buf, uint64(len(p.kinds)))
	for v := range p.kinds {
		buf = append(buf, uint8(p.kinds[v]))
		buf = appendString(buf, p.name(VarID(v)))
	}
	buf = appendUvarint(buf, uint64(len(p.Instrs)))
	for _, in := range p.Instrs {
		buf = append(buf, uint8(in.Op))
		buf = appendUvarint(buf, uint64(len(in.Args)))
		for _, a := range in.Args {
			buf = appendUvarint(buf, uint64(a))
		}
		buf = appendUvarint(buf, uint64(len(in.Rets)))
		for _, r := range in.Rets {
			buf = appendUvarint(buf, uint64(r))
		}
		buf = appendUvarint(buf, in.Part.LoNum)
		buf = appendUvarint(buf, in.Part.HiNum)
		buf = appendUvarint(buf, in.Part.Den)
		buf = appendString(buf, in.Comment)
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
		buf = appendString(buf, a.Table)
		buf = appendString(buf, a.Column)
	case ConstAux:
		buf = appendVarint(buf, a.Value)
	case SelectAux:
		buf = appendVarint(buf, a.Pred.Lo)
		buf = appendVarint(buf, a.Pred.Hi)
		buf = append(buf, boolByte(a.Pred.LoIncl), boolByte(a.Pred.HiIncl))
	case LikeAux:
		buf = appendString(buf, a.Pattern)
		buf = append(buf, uint8(a.Kind), boolByte(a.Anti))
	case CalcAux:
		buf = append(buf, uint8(a.Op))
		buf = appendVarint(buf, a.Scalar)
		buf = append(buf, boolByte(a.ScalarLeft))
	case AggrAux:
		buf = append(buf, uint8(a.Func))
	case SortAux:
		buf = append(buf, boolByte(a.Desc))
	}
	return buf
}

// Decode parses the canonical form back into a plan. The result is
// structurally identical to the encoded plan: re-encoding it reproduces the
// input bytes exactly.
func Decode(data []byte) (*Plan, error) {
	d := &decoder{buf: data}
	var magic [4]byte
	for i := range magic {
		b, err := d.byte()
		if err != nil {
			return nil, fmt.Errorf("plan: decode: %w", err)
		}
		magic[i] = b
	}
	if magic != encodeMagic {
		return nil, fmt.Errorf("plan: decode: bad magic %q (not a canonical plan)", magic[:])
	}
	ver, err := d.byte()
	if err != nil {
		return nil, fmt.Errorf("plan: decode: %w", err)
	}
	if ver != encodeVersion {
		return nil, fmt.Errorf("plan: decode: unsupported plan-format version %d (this build reads %d)", ver, encodeVersion)
	}
	p, err := d.plan()
	if err != nil {
		return nil, fmt.Errorf("plan: decode: %w", err)
	}
	if len(d.buf) != d.off {
		return nil, fmt.Errorf("plan: decode: %d trailing bytes after plan", len(d.buf)-d.off)
	}
	return p, nil
}

type decoder struct {
	buf []byte
	off int
}

func (d *decoder) plan() (*Plan, error) {
	nvars, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nvars > uint64(len(d.buf)) {
		return nil, fmt.Errorf("var count %d exceeds input", nvars)
	}
	p := New()
	for i := uint64(0); i < nvars; i++ {
		kb, err := d.byte()
		if err != nil {
			return nil, err
		}
		if Kind(kb) > KindGroups {
			return nil, fmt.Errorf("var %d: unknown kind %d", i, kb)
		}
		name, err := d.string()
		if err != nil {
			return nil, err
		}
		p.NewVar(Kind(kb), name)
	}
	ninstrs, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if ninstrs > uint64(len(d.buf)) {
		return nil, fmt.Errorf("instruction count %d exceeds input", ninstrs)
	}
	for i := uint64(0); i < ninstrs; i++ {
		in, err := d.instr(nvars)
		if err != nil {
			return nil, fmt.Errorf("instruction %d: %w", i, err)
		}
		p.Append(in)
	}
	return p, nil
}

func (d *decoder) instr(nvars uint64) (*Instr, error) {
	op, err := d.byte()
	if err != nil {
		return nil, err
	}
	if OpCode(op) > OpResult {
		return nil, fmt.Errorf("unknown opcode %d", op)
	}
	in := &Instr{Op: OpCode(op)}
	if in.Args, err = d.varList(nvars); err != nil {
		return nil, fmt.Errorf("args: %w", err)
	}
	if in.Rets, err = d.varList(nvars); err != nil {
		return nil, fmt.Errorf("rets: %w", err)
	}
	if in.Part.LoNum, err = d.uvarint(); err != nil {
		return nil, err
	}
	if in.Part.HiNum, err = d.uvarint(); err != nil {
		return nil, err
	}
	if in.Part.Den, err = d.uvarint(); err != nil {
		return nil, err
	}
	if in.Part.Den == 0 || in.Part.HiNum > in.Part.Den || in.Part.LoNum > in.Part.HiNum {
		return nil, fmt.Errorf("invalid part [%d/%d,%d/%d)", in.Part.LoNum, in.Part.Den, in.Part.HiNum, in.Part.Den)
	}
	if in.Comment, err = d.string(); err != nil {
		return nil, err
	}
	if in.Aux, err = d.aux(); err != nil {
		return nil, err
	}
	return in, nil
}

func (d *decoder) varList(nvars uint64) ([]VarID, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > uint64(len(d.buf)) {
		return nil, fmt.Errorf("list length %d exceeds input", n)
	}
	out := make([]VarID, n)
	for i := range out {
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if v >= nvars {
			return nil, fmt.Errorf("variable %d out of range (plan has %d)", v, nvars)
		}
		out[i] = VarID(v)
	}
	return out, nil
}

func (d *decoder) aux() (any, error) {
	kind, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch kind {
	case auxNone:
		return nil, nil
	case auxBind:
		var a BindAux
		if a.Table, err = d.string(); err != nil {
			return nil, err
		}
		if a.Column, err = d.string(); err != nil {
			return nil, err
		}
		return a, nil
	case auxConst:
		v, err := d.varint()
		if err != nil {
			return nil, err
		}
		return ConstAux{Value: v}, nil
	case auxSelect:
		var a SelectAux
		if a.Pred.Lo, err = d.varint(); err != nil {
			return nil, err
		}
		if a.Pred.Hi, err = d.varint(); err != nil {
			return nil, err
		}
		if a.Pred.LoIncl, err = d.bool(); err != nil {
			return nil, err
		}
		if a.Pred.HiIncl, err = d.bool(); err != nil {
			return nil, err
		}
		return a, nil
	case auxLike:
		var a LikeAux
		if a.Pattern, err = d.string(); err != nil {
			return nil, err
		}
		kb, err := d.byte()
		if err != nil {
			return nil, err
		}
		a.Kind = algebra.LikeKind(kb)
		if a.Anti, err = d.bool(); err != nil {
			return nil, err
		}
		return a, nil
	case auxCalc:
		var a CalcAux
		ob, err := d.byte()
		if err != nil {
			return nil, err
		}
		a.Op = algebra.CalcOp(ob)
		if a.Scalar, err = d.varint(); err != nil {
			return nil, err
		}
		if a.ScalarLeft, err = d.bool(); err != nil {
			return nil, err
		}
		return a, nil
	case auxAggr:
		fb, err := d.byte()
		if err != nil {
			return nil, err
		}
		return AggrAux{Func: algebra.AggrFunc(fb)}, nil
	case auxSort:
		desc, err := d.bool()
		if err != nil {
			return nil, err
		}
		return SortAux{Desc: desc}, nil
	}
	return nil, fmt.Errorf("unknown aux discriminator %d", kind)
}

func (d *decoder) byte() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, fmt.Errorf("truncated at offset %d", d.off)
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *decoder) bool() (bool, error) {
	b, err := d.byte()
	if err != nil {
		return false, err
	}
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, fmt.Errorf("invalid bool byte %d", b)
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if err := d.varintLen(n); err != nil {
		return 0, err
	}
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if err := d.varintLen(n); err != nil {
		return 0, err
	}
	return v, nil
}

// varintLen consumes an n-byte varint. A padded encoding (a zero final byte
// after the first) decodes to a value Encode writes shorter, so accepting it
// would give one plan two byte strings.
func (d *decoder) varintLen(n int) error {
	if n <= 0 {
		return fmt.Errorf("bad varint at offset %d", d.off)
	}
	if n > 1 && d.buf[d.off+n-1] == 0 {
		return fmt.Errorf("non-canonical varint at offset %d", d.off)
	}
	d.off += n
	return nil
}

func (d *decoder) string() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.buf)-d.off) {
		return "", fmt.Errorf("string length %d exceeds input at offset %d", n, d.off)
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

func appendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

func appendString(buf []byte, s string) []byte {
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
