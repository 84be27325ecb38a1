package storage

import (
	"fmt"
	"sort"
)

// Table is a named collection of equally long columns. heap is the lineage a
// table made by AppendRows / DeleteTail belongs to (nil for a built one).
type Table struct {
	name    string
	rows    int
	columns map[string]*Column
	order   []string
	heap    *tableHeap
}

// NewTable creates an empty table.
func NewTable(name string) *Table {
	return &Table{name: name, columns: make(map[string]*Column)}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Rows returns the table cardinality.
func (t *Table) Rows() int { return t.rows }

// AddColumn attaches col to the table. All columns of a table must have the
// same length and head oids starting at zero.
func (t *Table) AddColumn(col *Column) error {
	if col.Seq() != 0 {
		return fmt.Errorf("storage: table %q column %q must have seq 0, got %d", t.name, col.Name(), col.Seq())
	}
	if len(t.order) > 0 && col.Len() != t.rows {
		return fmt.Errorf("storage: table %q column %q has %d rows, table has %d", t.name, col.Name(), col.Len(), t.rows)
	}
	if _, dup := t.columns[col.Name()]; dup {
		return fmt.Errorf("storage: table %q already has column %q", t.name, col.Name())
	}
	t.columns[col.Name()] = col
	t.order = append(t.order, col.Name())
	t.rows = col.Len()
	return nil
}

// MustAddColumn is AddColumn that panics on error; used by generators whose
// schemas are static.
func (t *Table) MustAddColumn(col *Column) {
	if err := t.AddColumn(col); err != nil {
		panic(err)
	}
}

// Column returns the named column.
func (t *Table) Column(name string) (*Column, error) {
	c, ok := t.columns[name]
	if !ok {
		return nil, fmt.Errorf("storage: table %q has no column %q", t.name, name)
	}
	return c, nil
}

// MustColumn is Column that panics on a missing column.
func (t *Table) MustColumn(name string) *Column {
	c, err := t.Column(name)
	if err != nil {
		panic(err)
	}
	return c
}

// ColumnNames returns the column names in attachment order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.order))
	copy(out, t.order)
	return out
}

// Catalog maps table names to tables.
type Catalog struct {
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Add registers a table.
func (c *Catalog) Add(t *Table) error {
	if _, dup := c.tables[t.Name()]; dup {
		return fmt.Errorf("storage: catalog already has table %q", t.Name())
	}
	c.tables[t.Name()] = t
	return nil
}

// MustAdd is Add that panics on error.
func (c *Catalog) MustAdd(t *Table) {
	if err := c.Add(t); err != nil {
		panic(err)
	}
}

// Table returns the named table.
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("storage: catalog has no table %q", name)
	}
	return t, nil
}

// MustTable is Table that panics on a missing table.
func (c *Catalog) MustTable(name string) *Table {
	t, err := c.Table(name)
	if err != nil {
		panic(err)
	}
	return t
}

// Tables returns all table names sorted, for deterministic reporting.
func (c *Catalog) Tables() []string {
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
