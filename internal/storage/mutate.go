package storage

import (
	"fmt"
	"sync"

	"repro/internal/vec"
)

// tableHeap is the backing store the versions of one table lineage share: one
// full-capacity value slice per column (in Table.order) and the high-water
// mark written. The aliasing rule: a version reads rows [0, rows) through
// cap-limited views, and a row below written is never written again while a
// version that can read it may be read — so an append either lands behind
// written, where no version reads, or copies. mu is taken by writers only.
type tableHeap struct {
	mu      sync.Mutex
	cols    [][]int64
	written int
}

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
// The receiver is never modified and untouched tables are shared between old
// and new catalog; in-flight jobs holding the old catalog keep reading an
// immutable snapshot, and swapping the new catalog in is the caller's concern
// (the serving layer does it under its shard locks). The cost is the rows
// written when the table is the newest version of its lineage and its heap
// has room: the values land in the heap's spare tail, behind every version's
// length, and the new version is a longer view. Any other parent — a table no
// mutation made, one that a DeleteTail shortened (until ReclaimTail), a
// second child, a full heap — gets a fresh heap with one-eighth headroom, so
// no version's rows are ever overwritten. Dictionaries grow behind their
// views the same way (vec.Dict.Extend); codes never change.
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

	h, rows := t.heap, t.rows+n
	if h != nil {
		h.mu.Lock()
		defer h.mu.Unlock()
	}
	if h == nil || h.written != t.rows || rows > cap(h.cols[0]) {
		h = &tableHeap{cols: make([][]int64, len(t.order))}
		for i, name := range t.order {
			h.cols[i] = make([]int64, rows+rows/8)
			copy(h.cols[i], t.columns[name].Values())
		}
	}
	h.written = rows
	nt := NewTable(table)
	nt.heap = h
	for i, name := range t.order {
		a, dict, tail := cols[name], t.columns[name].Dict(), h.cols[i][t.rows:rows]
		if dict != nil {
			dict = dict.Extend(tail, a.Strs)
		} else {
			copy(tail, a.Ints)
		}
		nt.MustAddColumn(NewColumn(name, 0, vec.New(h.cols[i][:rows:rows], dict)))
	}
	return c.replaced(table, nt), nil
}

// DeleteTail returns a new catalog in which the last n rows of table are
// removed: a shorter view of the same columns, dictionaries included (they
// keep values no remaining row references). The receiver is never modified.
// Deleting every row is rejected — the engine's partitioners assume non-empty
// anchor inputs.
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
	nt := NewTable(table)
	nt.heap = t.heap
	for _, name := range t.order {
		nt.MustAddColumn(NewColumn(name, 0, t.columns[name].Data().Slice(0, t.rows-n)))
	}
	return c.replaced(table, nt), nil
}

// ReclaimTail declares that, of table's lineage, only the receiver's version
// will be read from now on: rows behind it that a longer, superseded version
// could read become spare tail again, so the next append to the receiver's
// version lands in place. The caller must know that no reader of any other
// version is left — the serving layer calls it under its epoch barrier.
func (c *Catalog) ReclaimTail(table string) {
	if t := c.tables[table]; t != nil && t.heap != nil {
		t.heap.mu.Lock()
		t.heap.written = t.rows
		t.heap.mu.Unlock()
	}
}

// Detached returns a catalog of the same columns whose tables belong to no
// lineage: its first append to a table copies, so whoever mutates and reclaims
// the result can never write into storage the receiver's holder still grows.
func (c *Catalog) Detached() *Catalog {
	out := NewCatalog()
	for name, t := range c.tables {
		nt := *t
		nt.heap = nil
		out.tables[name] = &nt
	}
	return out
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
