package storage

import (
	"fmt"
	"strings"

	"autostats/internal/catalog"
)

// Database binds a schema to table data. It is the unit the optimizer,
// executor and statistics manager all operate on.
type Database struct {
	Name   string
	Schema *catalog.Schema
	tables map[string]*TableData
}

// NewDatabase creates an empty database for the given schema, with one
// empty TableData per schema table and secondary indexes built per the
// schema's index definitions.
func NewDatabase(name string, schema *catalog.Schema) (*Database, error) {
	db := &Database{Name: name, Schema: schema, tables: make(map[string]*TableData)}
	for key, t := range schema.Tables {
		db.tables[key] = newTableData(t)
	}
	for _, ix := range schema.Indexes {
		td, err := db.Table(ix.Table)
		if err != nil {
			return nil, err
		}
		if err := td.createIndex(ix.Column); err != nil {
			return nil, fmt.Errorf("storage: building index %s: %w", ix.Name, err)
		}
	}
	return db, nil
}

// Table returns the data for the named table.
func (db *Database) Table(name string) (*TableData, error) {
	td, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("storage: unknown table %s", name)
	}
	return td, nil
}

// TotalRows returns the number of live rows across all tables.
func (db *Database) TotalRows() int {
	n := 0
	for _, td := range db.tables {
		n += td.RowCount()
	}
	return n
}

// DataVersion sums the per-table content-change counters. It changes
// whenever any table's rows change, so together with the statistics epoch it
// fingerprints everything a cached plan's estimates depend on.
func (db *Database) DataVersion() int64 {
	var v int64
	for _, td := range db.tables {
		v += td.contentVersion()
	}
	return v
}
