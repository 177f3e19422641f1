package catalog

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Column describes one column of a table.
type Column struct {
	Name string
	Type Type
}

// Index describes a (single-column) secondary index. The paper's intro
// experiment runs against a tuned TPC-D database with indexes; access-path
// choice between scan and index seek is one of the plan decisions that
// statistics influence.
type Index struct {
	Name   string
	Table  string
	Column string
	// Unique indexes let the optimizer cap equality selectivity at one row.
	Unique bool
}

// ForeignKey declares a join relationship used by the workload generator to
// produce meaningful equi-joins.
type ForeignKey struct {
	Table, Column       string
	RefTable, RefColumn string
}

// Table is the schema of one relation. Its name and column names are lower
// case: identifiers are case-insensitive, and the catalog is where that is
// decided, so every layer below compares names with ==.
type Table struct {
	Name    string
	Columns []Column
	// PrimaryKey names the primary key column ("" if none).
	PrimaryKey string

	byName map[string]int
}

// NewTable builds a table schema with lower-case table and column names and
// indexes its columns by name.
func NewTable(name string, cols ...Column) *Table {
	t := &Table{Name: strings.ToLower(name), Columns: slices.Clone(cols), byName: make(map[string]int, len(cols))}
	for i := range t.Columns {
		t.Columns[i].Name = strings.ToLower(t.Columns[i].Name)
		t.byName[t.Columns[i].Name] = i
	}
	return t
}

// ColumnIndex returns the ordinal of the named column, matched
// case-insensitively, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Column returns the named column's schema, or an error if absent.
func (t *Table) Column(name string) (Column, error) {
	i := t.ColumnIndex(name)
	if i < 0 {
		return Column{}, fmt.Errorf("catalog: table %s has no column %s", t.Name, name)
	}
	return t.Columns[i], nil
}

// Schema is a set of tables plus the metadata the optimizer and workload
// generator need: indexes and foreign keys.
type Schema struct {
	Tables      map[string]*Table
	Indexes     []Index
	ForeignKeys []ForeignKey
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{Tables: make(map[string]*Table)}
}

// AddTable registers a table; duplicate names are an error.
func (s *Schema) AddTable(t *Table) error {
	if _, ok := s.Tables[t.Name]; ok {
		return fmt.Errorf("catalog: duplicate table %s", t.Name)
	}
	s.Tables[t.Name] = t
	return nil
}

// Table looks up a table by case-insensitive name.
func (s *Schema) Table(name string) (*Table, error) {
	t, ok := s.Tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %s", name)
	}
	return t, nil
}

// AddIndex registers a secondary index after validating its target. The
// index stores its table's and column's canonical (lower-case) names.
func (s *Schema) AddIndex(ix Index) error {
	t, err := s.Table(ix.Table)
	if err != nil {
		return err
	}
	c := t.ColumnIndex(ix.Column)
	if c < 0 {
		return fmt.Errorf("catalog: index %s references unknown column %s.%s", ix.Name, ix.Table, ix.Column)
	}
	ix.Table, ix.Column = t.Name, t.Columns[c].Name
	s.Indexes = append(s.Indexes, ix)
	return nil
}

// IndexOn returns the index covering table.column, matched
// case-insensitively, if any.
func (s *Schema) IndexOn(table, column string) (Index, bool) {
	for _, ix := range s.Indexes {
		if strings.EqualFold(ix.Table, table) && strings.EqualFold(ix.Column, column) {
			return ix, true
		}
	}
	return Index{}, false
}

// AddForeignKey registers a join relationship after validating both ends.
// Both ends are stored under their canonical (lower-case) names.
func (s *Schema) AddForeignKey(fk ForeignKey) error {
	for _, end := range []struct{ t, c *string }{{&fk.Table, &fk.Column}, {&fk.RefTable, &fk.RefColumn}} {
		t, err := s.Table(*end.t)
		if err != nil {
			return err
		}
		c := t.ColumnIndex(*end.c)
		if c < 0 {
			return fmt.Errorf("catalog: foreign key references unknown column %s.%s", *end.t, *end.c)
		}
		*end.t, *end.c = t.Name, t.Columns[c].Name
	}
	s.ForeignKeys = append(s.ForeignKeys, fk)
	return nil
}

// TableNames returns all table names in deterministic (sorted) order.
func (s *Schema) TableNames() []string {
	names := make([]string, 0, len(s.Tables))
	for _, t := range s.Tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}
