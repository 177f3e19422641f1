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
// the indexes; Compact rewrites the table when tombstones accumulate.
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

	// Delta log (opt-in, see EnableDeltaLog): a bounded sequence-numbered
	// record of row modifications since the last trim, letting the statistics
	// manager fold deltas into existing histograms instead of rescanning the
	// table. deltaCap == 0 means the log is disabled and DML pays nothing.
	deltaCap  int
	deltaBase int64 // sequence number of deltas[0]
	deltas    []DeltaRec

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

// DeltaRec is one logged row modification: Del marks a deletion, otherwise an
// insertion. An update logs a deletion of the old row followed by an
// insertion of the new one. Row is a private copy, never mutated after
// logging, so readers may hold records without a lock.
type DeltaRec struct {
	Del bool
	Row Row
}

// DefaultDeltaLogCap bounds the delta log when EnableDeltaLog is called with
// a non-positive capacity.
const DefaultDeltaLogCap = 4096

// NewTableData creates an empty table.
func NewTableData(schema *catalog.Table) *TableData {
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
	t.appendDeltaLocked(false, r)
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
	// A bulk load replaces content wholesale without logging per-row deltas,
	// so every outstanding watermark must be invalidated.
	t.trimDeltasLocked(1)
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

// Version returns the monotonically increasing content-change counter.
func (t *TableData) Version() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// ResetModCounter zeroes the modification counter (called when statistics on
// the table are refreshed). The delta log is trimmed to the current sequence:
// watermarks equal to DeltaSeq stay valid (and see an empty window); older
// watermarks are invalidated, forcing their statistics to rebuild.
func (t *TableData) ResetModCounter() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.modCounter = 0
	t.trimDeltasLocked(0)
}

// EnableDeltaLog turns on row-modification logging with the given capacity
// (<= 0 uses DefaultDeltaLogCap). Enabling invalidates previously handed-out
// sequence watermarks — modifications made while the log was off were never
// recorded — so statistics built before the switch take one full rebuild
// before they can fold.
func (t *TableData) EnableDeltaLog(capacity int) {
	if capacity <= 0 {
		capacity = DefaultDeltaLogCap
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.deltaCap == 0 {
		t.trimDeltasLocked(1)
	}
	t.deltaCap = capacity
}

// DisableDeltaLog stops logging and drops the current log.
func (t *TableData) DisableDeltaLog() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.deltaCap = 0
	t.trimDeltasLocked(0)
}

// DeltaLogEnabled reports whether row modifications are being logged.
func (t *TableData) DeltaLogEnabled() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.deltaCap > 0
}

// DeltaSeq returns the log's current sequence number: the watermark a freshly
// built statistic records so a later DeltaWindow call replays exactly the
// modifications it has not seen.
func (t *TableData) DeltaSeq() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.deltaBase + int64(len(t.deltas))
}

// DeltaWindow returns the modifications logged since the given watermark and
// the new watermark to record after folding them. ok is false when the window
// is unavailable — the log is disabled, the watermark predates a trim or an
// overflow, or it is from the future — in which case the caller must fall
// back to a full rebuild. The returned records are immutable; they remain
// valid after the lock is released.
func (t *TableData) DeltaWindow(since int64) (recs []DeltaRec, next int64, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	next = t.deltaBase + int64(len(t.deltas))
	if t.deltaCap == 0 || since < t.deltaBase || since > next {
		return nil, next, false
	}
	return t.deltas[since-t.deltaBase:], next, true
}

// trimDeltasLocked drops all buffered records, advancing the base by the
// dropped count plus skew. A skew of 0 keeps current watermarks valid (their
// windows become empty); a positive skew invalidates every outstanding
// watermark (used when unlogged modifications happened, e.g. BulkLoad or
// enabling the log). Callers must hold mu. The buffer is released, never
// reused, so previously returned DeltaWindow slices stay immutable.
func (t *TableData) trimDeltasLocked(skew int64) {
	t.deltaBase += int64(len(t.deltas)) + skew
	t.deltas = nil
}

// appendDeltaLocked logs one modification, copying the row. On overflow the
// buffered window is dropped: watermarks that had already consumed it stay
// valid, while older ones see DeltaWindow ok=false and rebuild. Callers must
// hold mu.
func (t *TableData) appendDeltaLocked(del bool, r Row) {
	if t.deltaCap == 0 {
		return
	}
	if len(t.deltas) >= t.deltaCap {
		t.trimDeltasLocked(0)
	}
	t.deltas = append(t.deltas, DeltaRec{Del: del, Row: append(Row(nil), r...)})
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
		t.appendDeltaLocked(true, t.rows[id])
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
		// An update logs delete-old + insert-new; the old row must be copied
		// before the in-place overwrite below.
		t.appendDeltaLocked(true, t.rows[id])
		t.rows[id][col] = v
		t.appendDeltaLocked(false, t.rows[id])
		n++
	}
	t.modCounter += int64(n)
	t.version += int64(n)
	return n
}

// Compact rewrites the table dropping tombstoned rows and rebuilds indexes.
func (t *TableData) Compact() {
	t.mu.Lock()
	defer t.mu.Unlock()
	rows := make([]Row, 0, t.live)
	for id, r := range t.rows {
		if !t.dead[id] {
			rows = append(rows, r)
		}
	}
	t.rows = rows
	t.dead = make([]bool, len(rows))
	for col := range t.indexes {
		t.rebuildIndexLocked(col)
	}
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

// MultiColumnValues returns live tuples of the named columns, for
// multi-column statistics construction.
func (t *TableData) MultiColumnValues(cols []string) ([][]catalog.Datum, error) {
	out, _, err := t.MultiColumnValuesSeq(cols)
	return out, err
}

// MultiColumnValuesSeq is MultiColumnValues plus the delta-log sequence
// observed under the same lock, so the tuples and the watermark form one
// atomic snapshot: a statistic built from the tuples and stamped with the
// sequence can later fold exactly the modifications it has not seen.
func (t *TableData) MultiColumnValuesSeq(cols []string) ([][]catalog.Datum, int64, error) {
	ords := make([]int, len(cols))
	for i, c := range cols {
		ci := t.Schema.ColumnIndex(c)
		if ci < 0 {
			return nil, 0, fmt.Errorf("storage: table %s has no column %s", t.Schema.Name, c)
		}
		ords[i] = ci
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.gatherLocked(ords), t.deltaBase + int64(len(t.deltas)), nil
}

// gatherLocked projects the live rows onto the given column ordinals.
// Callers must hold mu.
func (t *TableData) gatherLocked(ords []int) [][]catalog.Datum {
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
	return out
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

// CreateIndex builds a sorted secondary index on the named column.
func (t *TableData) CreateIndex(col string) error {
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
