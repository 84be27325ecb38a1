package algebra

import (
	"fmt"

	"repro/internal/storage"
)

// CalcOp enumerates vectorized arithmetic operators (MonetDB's batcalc.*).
type CalcOp int

const (
	// CalcAdd computes a + b.
	CalcAdd CalcOp = iota
	// CalcSub computes a - b.
	CalcSub
	// CalcMul computes a * b.
	CalcMul
	// CalcDiv computes a / b (integer division; division by zero yields 0,
	// the nil-as-zero convention our fixed-point plans rely on).
	CalcDiv
)

func (op CalcOp) String() string {
	switch op {
	case CalcAdd:
		return "+"
	case CalcSub:
		return "-"
	case CalcMul:
		return "*"
	case CalcDiv:
		return "/"
	}
	return fmt.Sprintf("calc(%d)", int(op))
}

// div is CalcDiv's element operation.
func div(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// CalcVVInto applies op element-wise over two equally long column views,
// writing into a caller-owned destination of length a.Len() — sibling calc
// clones fill disjoint slices of one shared result buffer this way. The
// result is positionally aligned with its inputs; the caller gives it the
// view's head sequence.
func CalcVVInto(dst []int64, op CalcOp, a, b *storage.Column) Work {
	av, bv := a.Values(), b.Values()
	if len(av) != len(bv) {
		panic(fmt.Sprintf("algebra: CalcVV length mismatch %d vs %d (%s %s %s)", len(av), len(bv), a.Name(), op, b.Name()))
	}
	dst = dst[:len(av)]
	switch op {
	case CalcAdd:
		for i, x := range av {
			dst[i] = x + bv[i]
		}
	case CalcSub:
		for i, x := range av {
			dst[i] = x - bv[i]
		}
	case CalcMul:
		for i, x := range av {
			dst[i] = x * bv[i]
		}
	case CalcDiv:
		for i, x := range av {
			dst[i] = div(x, bv[i])
		}
	default:
		panic("algebra: unknown calc op")
	}
	return Work{
		BytesSeqRead:  a.Bytes() + b.Bytes(),
		BytesWritten:  int64(len(av)) * 8,
		TuplesIn:      int64(len(av)) * 2,
		TuplesOut:     int64(len(av)),
		MemClaimBytes: int64(len(av)) * 8,
	}
}

// CalcSVInto applies op with a scalar operand — scalar op v[i] when
// scalarLeft, v[i] op scalar otherwise — writing into a caller-owned
// destination of length v.Len(); see CalcVVInto.
func CalcSVInto(dst []int64, op CalcOp, scalar int64, v *storage.Column, scalarLeft bool) Work {
	in := v.Values()
	dst = dst[:len(in)]
	switch {
	case op == CalcAdd:
		for i, x := range in {
			dst[i] = x + scalar
		}
	case op == CalcSub && scalarLeft:
		for i, x := range in {
			dst[i] = scalar - x
		}
	case op == CalcSub:
		for i, x := range in {
			dst[i] = x - scalar
		}
	case op == CalcMul:
		for i, x := range in {
			dst[i] = x * scalar
		}
	case op == CalcDiv && scalarLeft:
		for i, x := range in {
			dst[i] = div(scalar, x)
		}
	case op == CalcDiv:
		for i, x := range in {
			dst[i] = div(x, scalar)
		}
	default:
		panic("algebra: unknown calc op")
	}
	return Work{
		BytesSeqRead:  v.Bytes(),
		BytesWritten:  int64(len(in)) * 8,
		TuplesIn:      int64(len(in)),
		TuplesOut:     int64(len(in)),
		MemClaimBytes: int64(len(in)) * 8,
	}
}
