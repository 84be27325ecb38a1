package storage_test

import (
	"testing"

	"repro/internal/storage"
	"repro/internal/tpch"
)

// BenchmarkMutationCycle prices a 600-row write three ways: the first append
// to a built table (always a copy), the steady append + truncate cycle the
// serving layer runs (ReclaimTail on every new version, as its epoch barrier
// does), and the same cycle with nobody reclaiming (the append after each
// delete copies). It writes the benchmark writer's two tables: lineitem at
// SF 1, whose one string column has three values, and part at SF 0.5, whose
// four string columns make Dict.Extend most of the steady cycle.
func BenchmarkMutationCycle(b *testing.B) {
	const rows = 600
	for _, w := range []struct {
		table string
		sf    float64
	}{{"lineitem", 1}, {"part", 0.5}} {
		cat := tpch.Generate(tpch.Config{SF: w.sf, Seed: 42})
		tab := cat.MustTable(w.table)
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
		b.Run(w.table+"/first_append_copy", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				must(cat.AppendRows(w.table, cols))
			}
		})
		cycle := func(reclaim bool) func(*testing.B) {
			return func(b *testing.B) {
				var cur *storage.Catalog
				advance := func(next *storage.Catalog, err error) {
					if cur = must(next, err); reclaim {
						cur.ReclaimTail(w.table)
					}
				}
				advance(cat.AppendRows(w.table, cols))
				advance(cur.DeleteTail(w.table, rows))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					advance(cur.AppendRows(w.table, cols))
					advance(cur.DeleteTail(w.table, rows))
				}
			}
		}
		b.Run(w.table+"/cycle_reclaim", cycle(true))
		b.Run(w.table+"/cycle_no_reclaim", cycle(false))
	}
}
