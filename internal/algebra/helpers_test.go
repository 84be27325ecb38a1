package algebra

import (
	"fmt"

	"repro/internal/storage"
	"repro/internal/vec"
)

// Materializing forms of the column-producing …Into kernels for tests: a
// fresh destination wrapped as a column, the way exec's fresh-ownership rung
// wraps one. The kernels themselves never allocate their output.

func wrap(name string, seq int64, vals []int64, d *vec.Dict) *storage.Column {
	return storage.NewColumn(name, seq, vec.New(vals, d))
}

func fetch(oids []int64, target *storage.Column) (*storage.Column, Work, int) {
	dst := make([]int64, len(oids))
	n, w, dropped := FetchInto(dst, oids, target)
	return wrap(target.Name(), 0, dst[:n:n], target.Dict()), w, dropped
}

func fetchPositions(pos []int64, col *storage.Column) (*storage.Column, Work) {
	dst := make([]int64, len(pos))
	w := FetchPositionsInto(dst, pos, col)
	return wrap(col.Name(), 0, dst, col.Dict()), w
}

func calcVV(op CalcOp, a, b *storage.Column) (*storage.Column, Work) {
	dst := make([]int64, a.Len())
	w := CalcVVInto(dst, op, a, b)
	return wrap(fmt.Sprintf("(%s%s%s)", a.Name(), op, b.Name()), a.Seq(), dst, nil), w
}

func calcSV(op CalcOp, scalar int64, v *storage.Column, scalarLeft bool) (*storage.Column, Work) {
	dst := make([]int64, v.Len())
	w := CalcSVInto(dst, op, scalar, v, scalarLeft)
	return wrap(fmt.Sprintf("(calc%s%s)", op, v.Name()), v.Seq(), dst, nil), w
}
