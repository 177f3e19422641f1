// Package storage implements the in-memory row store the executor runs
// against: tables of datum rows, sorted secondary indexes, and the
// row-modification counters that drive the statistics update policy (§6 of
// the paper mirrors SQL Server 7.0's per-table modification counter).
package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"autostats/internal/catalog"
)

// Row is one tuple; column order matches the table schema.
type Row []catalog.Datum

// TableData holds the rows of one table plus its secondary indexes.
//
// Deletion is implemented with a tombstone bitmap so row IDs stay stable for
// the indexes.
type TableData struct {
	mu sync.RWMutex

	Schema *catalog.Table
	rows   []Row
	dead   []bool
	live   int

	indexes map[string]*Index // by column name (lower-cased by caller convention)

	// modCounter counts rows inserted/updated/deleted since the last
	// statistics refresh on this table (the SQL Server 7.0 policy counter).
	modCounter int64
	// version counts every content change since creation and is never
	// reset (unlike modCounter). It feeds the optimizer's plan-cache key so
	// DML invalidates cached plans whose cardinality inputs went stale.
	version int64

	// openSnapshots counts live BlockIter snapshot guards on this table.
	// It exists for leak detection: a streaming statistics build that exits
	// on any path — success, error, cancellation — must bring it back to
	// zero. Atomic, not mu-guarded, so leak checks need no lock.
	openSnapshots atomic.Int64
}

// OpenSnapshots returns the number of currently open BlockIter snapshot
// guards — zero whenever no streaming scan is in flight. Tests use it to
// prove cancelled builds release their snapshots.
func (t *TableData) OpenSnapshots() int64 {
	return t.openSnapshots.Load()
}

// newTableData creates an empty table.
func newTableData(schema *catalog.Table) *TableData {
	return &TableData{Schema: schema, indexes: make(map[string]*Index)}
}

// Insert appends a row. The row must match the schema arity.
func (t *TableData) Insert(r Row) error {
	if len(r) != len(t.Schema.Columns) {
		return fmt.Errorf("storage: insert into %s: got %d values, want %d", t.Schema.Name, len(r), len(t.Schema.Columns))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.rows)
	t.rows = append(t.rows, r)
	t.dead = append(t.dead, false)
	t.live++
	t.modCounter++
	t.version++
	for col, ix := range t.indexes {
		ci := t.Schema.ColumnIndex(col)
		ix.insert(r[ci], id)
	}
	return nil
}

// BulkLoad replaces the table contents with rows, rebuilding all indexes.
// It does not bump the modification counter: loading is the baseline against
// which modifications are counted.
func (t *TableData) BulkLoad(rows []Row) error {
	for _, r := range rows {
		if len(r) != len(t.Schema.Columns) {
			return fmt.Errorf("storage: bulk load into %s: got %d values, want %d", t.Schema.Name, len(r), len(t.Schema.Columns))
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = rows
	t.dead = make([]bool, len(rows))
	t.live = len(rows)
	t.version++
	for col := range t.indexes {
		t.rebuildIndexLocked(col)
	}
	return nil
}

// RowCount returns the number of live rows.
func (t *TableData) RowCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// ModCounter returns rows modified since the last ResetModCounter.
func (t *TableData) ModCounter() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.modCounter
}

// contentVersion returns the monotonically increasing content-change counter.
func (t *TableData) contentVersion() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// ResetModCounter takes seen modifications off the counter (called when the
// statistics on the table are refreshed). seen is the counter as read before
// the refresh began, so modifications made while it ran stay pending.
func (t *TableData) ResetModCounter(seen int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.modCounter = max(t.modCounter-seen, 0)
}

// Scan invokes fn for every live row. fn must not retain the row slice.
// Returning false from fn stops the scan.
func (t *TableData) Scan(fn func(id int, r Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for id, r := range t.rows {
		if t.dead[id] {
			continue
		}
		if !fn(id, r) {
			return
		}
	}
}

// Get returns the row with the given ID, or false if it was deleted.
func (t *TableData) Get(id int) (Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if id < 0 || id >= len(t.rows) || t.dead[id] {
		return nil, false
	}
	return t.rows[id], true
}

// Delete tombstones the rows with the given IDs and returns how many were
// live. Index entries are removed lazily at lookup time via the tombstone
// check, keeping delete O(1) per row.
func (t *TableData) Delete(ids []int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, id := range ids {
		if id < 0 || id >= len(t.rows) || t.dead[id] {
			continue
		}
		t.dead[id] = true
		t.live--
		n++
	}
	t.modCounter += int64(n)
	t.version += int64(n)
	return n
}

// Update overwrites column col (by ordinal) of the given rows with v and
// returns how many rows were live. Indexed columns trigger an index fix-up.
func (t *TableData) Update(ids []int, col int, v catalog.Datum) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	colName := t.Schema.Columns[col].Name
	ix := t.indexes[keyOf(colName)]
	n := 0
	for _, id := range ids {
		if id < 0 || id >= len(t.rows) || t.dead[id] {
			continue
		}
		if ix != nil {
			ix.remove(t.rows[id][col], id)
			ix.insert(v, id)
		}
		t.rows[id][col] = v
		n++
	}
	t.modCounter += int64(n)
	t.version += int64(n)
	return n
}

// ColumnValues returns the live values of the named column, in row order.
// It is the feed for histogram construction.
func (t *TableData) ColumnValues(col string) ([]catalog.Datum, error) {
	ci := t.Schema.ColumnIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("storage: table %s has no column %s", t.Schema.Name, col)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]catalog.Datum, 0, t.live)
	for id, r := range t.rows {
		if !t.dead[id] {
			out = append(out, r[ci])
		}
	}
	return out, nil
}

// MultiColumnValues returns the live tuples of the named columns, in row
// order, gathered under one read lock: the one-shot projection that
// histogram.BuildMulti references are built from.
func (t *TableData) MultiColumnValues(cols []string) ([][]catalog.Datum, error) {
	ords := make([]int, len(cols))
	for i, c := range cols {
		ci := t.Schema.ColumnIndex(c)
		if ci < 0 {
			return nil, fmt.Errorf("storage: table %s has no column %s", t.Schema.Name, c)
		}
		ords[i] = ci
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([][]catalog.Datum, 0, t.live)
	for id, r := range t.rows {
		if t.dead[id] {
			continue
		}
		tuple := make([]catalog.Datum, len(ords))
		for i, o := range ords {
			tuple[i] = r[o]
		}
		out = append(out, tuple)
	}
	return out, nil
}

func keyOf(col string) string {
	// Index map keys are lower-cased column names.
	b := []byte(col)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

// createIndex builds a sorted secondary index on the named column.
func (t *TableData) createIndex(col string) error {
	if t.Schema.ColumnIndex(col) < 0 {
		return fmt.Errorf("storage: table %s has no column %s", t.Schema.Name, col)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.indexes[keyOf(col)] = nil
	t.rebuildIndexLocked(keyOf(col))
	return nil
}

// IndexOn returns the index on the named column, if built.
func (t *TableData) IndexOn(col string) (*Index, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix, ok := t.indexes[keyOf(col)]
	return ix, ok && ix != nil
}

func (t *TableData) rebuildIndexLocked(colKey string) {
	ci := t.Schema.ColumnIndex(colKey)
	ix := &Index{Column: t.Schema.Columns[ci].Name}
	for id, r := range t.rows {
		if !t.dead[id] {
			ix.entries = append(ix.entries, indexEntry{key: r[ci], rowID: id})
		}
	}
	sort.SliceStable(ix.entries, func(a, b int) bool {
		return ix.entries[a].key.Compare(ix.entries[b].key) < 0
	})
	t.indexes[colKey] = ix
}
