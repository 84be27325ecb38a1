package storage

import (
	"fmt"

	"repro/internal/vec"
)

// ColumnAppend carries the values appended to one column of a table. Exactly
// one of Ints or Strs must be set, matching the column's payload type.
type ColumnAppend struct {
	Ints []int64  `json:"ints,omitempty"`
	Strs []string `json:"strs,omitempty"`
}

func (a ColumnAppend) rows() int {
	if a.Strs != nil {
		return len(a.Strs)
	}
	return len(a.Ints)
}

// AppendRows returns a new catalog in which table has the given rows appended.
//
// The mutation is copy-on-write: the receiver is never modified, untouched
// tables are shared between old and new catalog, and the mutated table gets
// freshly materialized base columns (dictionary-coded columns get a new
// dictionary — vec.Dict.Code mutates, so the old table's dictionary must not
// be shared with a column that grows). In-flight jobs holding the old catalog
// keep reading an immutable snapshot; swapping the new catalog in is the
// caller's concern (the serving layer does it under its shard locks).
//
// cols must name every column of the table exactly once, all with the same
// strictly positive number of appended rows and payload types matching the
// existing columns.
func (c *Catalog) AppendRows(table string, cols map[string]ColumnAppend) (*Catalog, error) {
	t, err := c.Table(table)
	if err != nil {
		return nil, err
	}
	if len(cols) != len(t.order) {
		return nil, fmt.Errorf("storage: append to %q must cover all %d columns, got %d", table, len(t.order), len(cols))
	}
	n := -1
	for _, name := range t.order {
		a, ok := cols[name]
		if !ok {
			return nil, fmt.Errorf("storage: append to %q missing column %q", table, name)
		}
		if a.Ints != nil && a.Strs != nil {
			return nil, fmt.Errorf("storage: append to %q column %q sets both int and string values", table, name)
		}
		if n < 0 {
			n = a.rows()
		} else if a.rows() != n {
			return nil, fmt.Errorf("storage: append to %q column %q has %d rows, want %d", table, name, a.rows(), n)
		}
		isStr := t.columns[name].Data().IsString()
		if isStr && a.Strs == nil {
			return nil, fmt.Errorf("storage: append to %q column %q is dictionary-coded, need string values", table, name)
		}
		if !isStr && a.Ints == nil {
			return nil, fmt.Errorf("storage: append to %q column %q is int64, need int values", table, name)
		}
	}
	if n <= 0 {
		return nil, fmt.Errorf("storage: append to %q must add at least one row", table)
	}

	nt := NewTable(table)
	for _, name := range t.order {
		old := t.columns[name]
		a := cols[name]
		var data *vec.Vector
		if old.Data().IsString() {
			// Re-code the full column through a fresh dictionary: the old
			// dictionary may be shared by views and snapshots, and Code
			// mutates.
			nd := vec.NewDict()
			codes := make([]int64, 0, old.Len()+n)
			oldDict := old.Dict()
			for _, code := range old.Values() {
				codes = append(codes, nd.Code(oldDict.Value(code)))
			}
			for _, s := range a.Strs {
				codes = append(codes, nd.Code(s))
			}
			data = vec.NewDictCoded(codes, nd)
		} else {
			vals := make([]int64, 0, old.Len()+n)
			vals = append(vals, old.Values()...)
			vals = append(vals, a.Ints...)
			data = vec.NewInt64(vals)
		}
		nt.MustAddColumn(NewColumn(name, 0, data))
	}
	return c.replaced(table, nt), nil
}

// DeleteTail returns a new catalog in which the last n rows of table are
// removed, with the same copy-on-write discipline as AppendRows. Deleting
// every row is rejected — the engine's partitioners assume non-empty anchor
// inputs.
func (c *Catalog) DeleteTail(table string, n int) (*Catalog, error) {
	t, err := c.Table(table)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("storage: delete from %q must remove at least one row", table)
	}
	if n >= t.rows {
		return nil, fmt.Errorf("storage: delete of %d rows from %q would empty the table (%d rows)", n, table, t.rows)
	}

	keep := t.rows - n
	nt := NewTable(table)
	for _, name := range t.order {
		old := t.columns[name]
		var data *vec.Vector
		if old.Data().IsString() {
			nd := vec.NewDict()
			codes := make([]int64, 0, keep)
			oldDict := old.Dict()
			for _, code := range old.Values()[:keep] {
				codes = append(codes, nd.Code(oldDict.Value(code)))
			}
			data = vec.NewDictCoded(codes, nd)
		} else {
			vals := make([]int64, keep)
			copy(vals, old.Values()[:keep])
			data = vec.NewInt64(vals)
		}
		nt.MustAddColumn(NewColumn(name, 0, data))
	}
	return c.replaced(table, nt), nil
}

// replaced returns a new catalog sharing every table of the receiver except
// name, which maps to nt.
func (c *Catalog) replaced(name string, nt *Table) *Catalog {
	out := NewCatalog()
	for tn, t := range c.tables {
		if tn == name {
			out.tables[tn] = nt
		} else {
			out.tables[tn] = t
		}
	}
	return out
}
