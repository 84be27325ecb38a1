package storage_test

import (
	"testing"

	"repro/internal/storage"
	"repro/internal/tpch"
)

// BenchmarkMutationCycle prices a 600-row write to lineitem three ways: the
// first append to a built table (always a copy), the steady append + truncate
// cycle the serving layer runs (ReclaimTail on every new version, as its epoch
// barrier does), and the same cycle with nobody reclaiming (the append after
// each delete copies).
func BenchmarkMutationCycle(b *testing.B) {
	const rows = 600
	cat := tpch.Generate(tpch.Config{SF: 1, Seed: 42})
	tab := cat.MustTable("lineitem")
	cols := map[string]storage.ColumnAppend{}
	for _, name := range tab.ColumnNames() {
		col := tab.MustColumn(name)
		if d := col.Dict(); d != nil {
			strs := make([]string, rows)
			for i := range strs {
				strs[i] = d.Value(col.At(i))
			}
			cols[name] = storage.ColumnAppend{Strs: strs}
		} else {
			cols[name] = storage.ColumnAppend{Ints: col.Values()[:rows]}
		}
	}
	must := func(c *storage.Catalog, err error) *storage.Catalog {
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	b.Run("first_append_copy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			must(cat.AppendRows("lineitem", cols))
		}
	})
	cycle := func(reclaim bool) func(*testing.B) {
		return func(b *testing.B) {
			var cur *storage.Catalog
			advance := func(next *storage.Catalog, err error) {
				if cur = must(next, err); reclaim {
					cur.ReclaimTail("lineitem")
				}
			}
			advance(cat.AppendRows("lineitem", cols))
			advance(cur.DeleteTail("lineitem", rows))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				advance(cur.AppendRows("lineitem", cols))
				advance(cur.DeleteTail("lineitem", rows))
			}
		}
	}
	b.Run("cycle_reclaim", cycle(true))
	b.Run("cycle_no_reclaim", cycle(false))
}
