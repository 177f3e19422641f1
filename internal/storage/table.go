// Package storage implements the in-memory row store the executor runs
// against: tables of datum rows, sorted secondary indexes, and the
// row-modification counters that drive the statistics update policy (§6 of
// the paper mirrors SQL Server 7.0's per-table modification counter).
package storage

import (
	"fmt"
	"slices"
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
//
// A stored row is written in place until a reader keeps it past the read
// lock (see Lend). From then on it is immutable: Update writes a copy, and
// the reader's row keeps the values it was read with.
type TableData struct {
	mu sync.RWMutex

	Schema *catalog.Table
	rows   []Row
	dead   []bool
	live   int
	// lent has bit id%64 of word id/64 set while row id is lent. Readers set
	// bits atomically under the read lock; Update clears them under the
	// write lock. Insert and BulkLoad keep it sized to rows.
	lent []uint64

	indexes map[string]*index // by the catalog's column name

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
	return &TableData{Schema: schema, indexes: make(map[string]*index)}
}

// Insert appends a copy of r, so the caller may reuse r. The row must match
// the schema arity.
func (t *TableData) Insert(r Row) error {
	if len(r) != len(t.Schema.Columns) {
		return fmt.Errorf("storage: insert into %s: got %d values, want %d", t.Schema.Name, len(r), len(t.Schema.Columns))
	}
	r = slices.Clone(r)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.rows)
	t.rows = append(t.rows, r)
	t.dead = append(t.dead, false)
	if id%64 == 0 {
		t.lent = append(t.lent, 0)
	}
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
	t.lent = make([]uint64, (len(rows)+63)/64)
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
	return View{t}.Rows()
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

// Scan invokes fn for every live row under the read lock; see View.Scan.
func (t *TableData) Scan(fn func(id int, r Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	View{t}.Scan(fn)
}

// Seek invokes fn for every live row in an index range under the read lock;
// see View.Seek.
func (t *TableData) Seek(col string, lo, hi *catalog.Datum, loInc, hiInc bool, fn func(id int, r Row) bool) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return View{t}.Seek(col, lo, hi, loInc, hiInc, fn)
}

// Delete tombstones the live rows that find picks and returns how many there
// were. find runs under the write lock that the write then holds, so the rows
// it picks are the rows written: no other write falls between the match and
// the write. An error from find leaves the table unchanged. Index entries
// are removed lazily at lookup time via the tombstone check, keeping delete
// O(1) per row.
func (t *TableData) Delete(find func(View) ([]int, error)) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids, err := find(View{t})
	if err != nil {
		return 0, err
	}
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
	return n, nil
}

// Update overwrites column col (by ordinal) of the live rows that find picks
// with v and returns how many there were. find runs under the write lock, as
// for Delete. A lent row is copied before it is written and is no longer
// lent after; any other row is written in place. Indexed columns trigger an
// index fix-up in the order of the picked IDs, which decides the index order
// among equal keys.
func (t *TableData) Update(find func(View) ([]int, error), col int, v catalog.Datum) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids, err := find(View{t})
	if err != nil {
		return 0, err
	}
	ix := t.indexes[t.Schema.Columns[col].Name]
	n := 0
	for _, id := range ids {
		if id < 0 || id >= len(t.rows) || t.dead[id] {
			continue
		}
		if ix != nil {
			ix.remove(t.rows[id][col], id)
			ix.insert(v, id)
		}
		// The write lock excludes every reader, so no bit changes here.
		if w, bit := id/64, uint64(1)<<(id%64); t.lent[w]&bit != 0 {
			t.rows[id] = slices.Clone(t.rows[id])
			t.lent[w] &^= bit
		}
		t.rows[id][col] = v
		n++
	}
	t.modCounter += int64(n)
	t.version += int64(n)
	return n, nil
}

// Lend marks row id as kept by a reader past the read lock, so that the row
// the reader holds never changes: an Update copies a lent row before writing
// it. The row is read-only to every holder from then on. Lend takes no lock;
// call it only for a row that a Scan or Seek visitor of t was handed, while
// the visitor runs.
func (t *TableData) Lend(id int) {
	w, bit := &t.lent[id/64], uint64(1)<<(id%64)
	for old := atomic.LoadUint64(w); old&bit == 0; old = atomic.LoadUint64(w) {
		if atomic.CompareAndSwapUint64(w, old, old|bit) {
			return
		}
	}
}

// View reads a table under a lock its holder already has. TableData's read
// methods take the read lock and use one; Delete and Update hand one, under
// the write lock, to the function that picks the rows they write. A View is
// valid only until the call that handed it out returns, and the rows it
// passes to fn only until fn returns. The lock is held while find and fn
// run, so they must not call the table's own methods.
type View struct{ t *TableData }

// Rows returns the number of live rows.
func (v View) Rows() int { return v.t.live }

// Scan invokes fn for every live row, in row-ID order. Returning false from
// fn stops the scan.
func (v View) Scan(fn func(id int, r Row) bool) {
	for id, r := range v.t.rows {
		if v.t.dead[id] {
			continue
		}
		if !fn(id, r) {
			return
		}
	}
}

// Count returns how many index entries a Seek with the same range would
// visit, tombstoned rows still in the index included, by two binary
// searches. ok is false when col has no index.
func (v View) Count(col string, lo, hi *catalog.Datum, loInc, hiInc bool) (n int, ok bool) {
	ix := v.t.indexes[col]
	if ix == nil {
		return 0, false
	}
	start, end := ix.span(lo, hi, loInc, hiInc)
	return max(end-start, 0), true
}

// Seek invokes fn for every live row whose value of the indexed column col
// lies in [lo, hi], in index order. A nil bound is unbounded; loInc/hiInc
// control bound inclusivity. Returning false from fn stops the seek. Seek
// returns false when col has no index.
func (v View) Seek(col string, lo, hi *catalog.Datum, loInc, hiInc bool, fn func(id int, r Row) bool) bool {
	ix := v.t.indexes[col]
	if ix == nil {
		return false
	}
	start, end := ix.span(lo, hi, loInc, hiInc)
	for _, e := range ix.entries[start:max(start, end)] {
		if v.t.dead[e.rowID] {
			continue
		}
		if !fn(e.rowID, v.t.rows[e.rowID]) {
			break
		}
	}
	return true
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

// createIndex builds a sorted secondary index on the named column.
func (t *TableData) createIndex(col string) error {
	ci := t.Schema.ColumnIndex(col)
	if ci < 0 {
		return fmt.Errorf("storage: table %s has no column %s", t.Schema.Name, col)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rebuildIndexLocked(t.Schema.Columns[ci].Name)
	return nil
}

func (t *TableData) rebuildIndexLocked(colKey string) {
	ci := t.Schema.ColumnIndex(colKey)
	ix := &index{}
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
