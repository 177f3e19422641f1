package storage

import (
	"fmt"

	"autostats/internal/catalog"
)

// Streaming scan seam for bounded-memory statistics construction. A
// BlockIter yields the live rows of a table projected onto a column set in
// fixed-size blocks, under a snapshot guard: the table's read lock is held
// from Open to Close, so every block belongs to one consistent table
// version — the same guarantee MultiColumnValues gives a one-shot gather,
// without materializing the full projection. Writers queue behind the guard
// for the duration of the scan; the statistics build path keeps that window
// short by releasing the iterator before the merge pass.

// defaultBlockSize is the rows-per-block used when OpenBlockIter is called
// with a non-positive block size.
const defaultBlockSize = 1024

// BlockIter streams projected row blocks of one table snapshot. It is not
// safe for concurrent use; one goroutine opens, drains and closes it. The
// slice returned by Next is reused between calls — callers must copy any
// datum they retain past the next Next call.
type BlockIter struct {
	t    *TableData
	ords []int
	// pos is the next row ID to examine; rows is the snapshot's backing
	// slice length (stable while the guard is held).
	pos  int
	rows int

	// buf and flat back the reused block: buf[i] is flat[i*w:(i+1)*w].
	buf    [][]catalog.Datum
	flat   []catalog.Datum
	closed bool
}

// OpenBlockIter opens a streaming scan of the named columns in blocks of at
// most blockSize rows (<= 0 means defaultBlockSize). The table read lock is
// held until Close, so the scan observes exactly one table version. Callers
// MUST Close the iterator (Close is idempotent), must not call other
// methods of the same TableData while it is open (the guard is held by this
// goroutine), and must copy datums they retain across Next calls.
func (t *TableData) OpenBlockIter(cols []string, blockSize int) (*BlockIter, error) {
	ords := make([]int, len(cols))
	for i, c := range cols {
		ci := t.Schema.ColumnIndex(c)
		if ci < 0 {
			return nil, fmt.Errorf("storage: table %s has no column %s", t.Schema.Name, c)
		}
		ords[i] = ci
	}
	if blockSize <= 0 {
		blockSize = defaultBlockSize
	}
	t.mu.RLock()
	t.openSnapshots.Add(1)
	w := len(ords)
	it := &BlockIter{
		t:    t,
		ords: ords,
		rows: len(t.rows),
		buf:  make([][]catalog.Datum, 0, blockSize),
		flat: make([]catalog.Datum, blockSize*w),
	}
	return it, nil
}

// Next returns the next block of projected live-row tuples and true, or nil
// and false when the scan is exhausted or the iterator closed. The returned
// slice (and the tuples in it) are reused by the following Next call.
func (it *BlockIter) Next() ([][]catalog.Datum, bool) {
	if it.closed || it.pos >= it.rows {
		return nil, false
	}
	w := len(it.ords)
	it.buf = it.buf[:0]
	used := 0
	for it.pos < it.rows && len(it.buf) < cap(it.buf) {
		id := it.pos
		it.pos++
		if it.t.dead[id] {
			continue
		}
		r := it.t.rows[id]
		tuple := it.flat[used : used+w : used+w]
		for i, o := range it.ords {
			tuple[i] = r[o]
		}
		used += w
		it.buf = append(it.buf, tuple)
	}
	if len(it.buf) == 0 {
		return nil, false
	}
	return it.buf, true
}

// Close releases the snapshot guard. Idempotent; after Close, Next returns
// false. Every open iterator must be closed, including on error and
// cancellation paths — the leak-check oracle counts open snapshots.
func (it *BlockIter) Close() {
	if it.closed {
		return
	}
	it.closed = true
	it.t.openSnapshots.Add(-1)
	it.t.mu.RUnlock()
}
