package storage

import (
	"cmp"
	"slices"
	"sort"

	"autostats/internal/catalog"
)

// index is a sorted secondary index over one column: the IDs of the rows,
// ordered by the column's value in its vector and, among equal values, by
// row ID. Lookups binary-search the IDs; inserts keep them sorted. This
// models a B-tree closely enough for cost purposes (O(log n) seek +
// O(matches) scan). It is read and written only under its table's lock.
type index struct {
	col *vector
	ids []int32
}

// newIndex indexes the rows of col that are not dead.
func newIndex(col *vector, dead []bool) *index {
	ix := &index{col: col}
	for id, d := range dead {
		if !d {
			ix.ids = append(ix.ids, int32(id))
		}
	}
	slices.SortFunc(ix.ids, ix.compare)
	return ix
}

func (ix *index) compare(a, b int32) int {
	if c := ix.col.compare(int(a), int(b)); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// find returns the position of id, or where it goes, by its value in the
// column's vector.
func (ix *index) find(id int32) int {
	return sort.Search(len(ix.ids), func(i int) bool { return ix.compare(ix.ids[i], id) >= 0 })
}

// insert adds row id, whose value the vector already holds.
func (ix *index) insert(id int) {
	ix.ids = slices.Insert(ix.ids, ix.find(int32(id)), int32(id))
}

// remove drops row id; the vector must still hold the value it was indexed
// under.
func (ix *index) remove(id int) {
	if i := ix.find(int32(id)); i < len(ix.ids) && ix.ids[i] == int32(id) {
		ix.ids = slices.Delete(ix.ids, i, i+1)
	}
}

// span returns the positions [start, end) of the rows with lo ≤ value ≤ hi.
// A nil bound is unbounded; loInc/hiInc control bound inclusivity. start is
// found by binary search, and end by galloping from start when lo is set,
// so that a point or short range costs one search, not two: each probe
// reads a row ID and then the vector, two cache misses on a large table.
func (ix *index) span(lo, hi *catalog.Datum, loInc, hiInc bool) (start, end int) {
	n := len(ix.ids)
	if lo != nil {
		start = sort.Search(n, func(i int) bool {
			c := ix.col.compareTo(int(ix.ids[i]), lo)
			return c > 0 || c == 0 && loInc
		})
	}
	if hi == nil {
		return start, n
	}
	past := func(i int) bool {
		c := ix.col.compareTo(int(ix.ids[i]), hi)
		return c > 0 || c == 0 && !hiInc
	}
	if lo == nil {
		return start, sort.Search(n, past)
	}
	// Positions start through last are in the range, and the end lies in
	// (last, last+step].
	last, step := start-1, 1
	for last+step < n && !past(last+step) {
		last += step
		step *= 2
	}
	limit := min(last+step, n)
	return start, last + 1 + sort.Search(limit-last-1, func(k int) bool { return past(last + 1 + k) })
}
