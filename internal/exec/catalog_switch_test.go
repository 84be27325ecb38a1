package exec

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/storage"
)

// joinCatalog holds outer(k) and inner(k, f): every inner row passes f >= 1.
func joinCatalog(outerKeys, innerKeys []int64) *storage.Catalog {
	outer := storage.NewTable("outer")
	outer.MustAddColumn(storage.NewIntColumn("k", outerKeys))
	inner := storage.NewTable("inner")
	inner.MustAddColumn(storage.NewIntColumn("k", innerKeys))
	f := make([]int64, len(innerKeys))
	for i := range f {
		f[i] = 1
	}
	inner.MustAddColumn(storage.NewIntColumn("f", f))
	cat := storage.NewCatalog()
	cat.MustAdd(outer)
	cat.MustAdd(inner)
	return cat
}

// A cached plan keeps its arena — and the arena's memoized column wrappers —
// across runs. The same plan object is then served against another catalog (a
// tenant's, or the next epoch's: core.Session keeps its best plan across a
// reopen). When the join's inner intermediate has the same length there,
// buffer identity hits the old wrapper; its hash index must still be this
// run's, because the inner's producer rebuilds it on every run.
func TestMemoizedWrappersAreScopedToACatalog(t *testing.T) {
	keys := func(from int64) []int64 {
		out := make([]int64, 200)
		for i := range out {
			out[i] = from + int64(i)
		}
		return out
	}
	catA := joinCatalog(keys(0), keys(0))
	catB := joinCatalog(keys(0), keys(1000)) // same lengths, no key in common

	b := plan.NewBuilder()
	ok := b.Bind("outer", "k")
	ik := b.Bind("inner", "k")
	sel := b.Select(b.Bind("inner", "f"), algebra.AtLeast(1))
	lo, _ := b.Join(ok, b.Fetch(sel, ik))
	b.Result(b.Aggr(algebra.AggrCount, b.Fetch(lo, ok)))
	p := b.Plan()

	count := func(eng *Engine, opts JobOptions) int64 {
		t.Helper()
		res, _, err := eng.ExecuteOpts(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res[0].Scalar
	}
	eng := NewEngine(catA, testMachine(), cost.Default())
	for run := 0; run < 2; run++ {
		if got := count(eng, JobOptions{}); got != 200 {
			t.Fatalf("run %d on catalog A: %d matches, want 200", run, got)
		}
	}
	want := count(NewEngine(catB, testMachine(), cost.Default()), JobOptions{})
	if got := count(eng, JobOptions{Catalog: catB}); got != want || want != 0 {
		t.Fatalf("same plan on catalog B: %d matches, a fresh engine answers %d (want 0)", got, want)
	}
	// Back on A the index is rebuilt once more, not carried over from B.
	if got := count(eng, JobOptions{Catalog: catA}); got != 200 {
		t.Fatalf("back on catalog A: %d matches, want 200", got)
	}
}
