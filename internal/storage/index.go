package storage

import (
	"sort"

	"autostats/internal/catalog"
)

type indexEntry struct {
	key   catalog.Datum
	rowID int
}

// Index is a sorted secondary index over one column. Lookups binary-search
// the entry slice; inserts keep it sorted. This models a B-tree closely
// enough for cost purposes (O(log n) seek + O(matches) scan).
type Index struct {
	Column  string
	entries []indexEntry
}

func (ix *Index) insert(key catalog.Datum, rowID int) {
	i := sort.Search(len(ix.entries), func(i int) bool {
		return ix.entries[i].key.Compare(key) >= 0
	})
	ix.entries = append(ix.entries, indexEntry{})
	copy(ix.entries[i+1:], ix.entries[i:])
	ix.entries[i] = indexEntry{key: key, rowID: rowID}
}

func (ix *Index) remove(key catalog.Datum, rowID int) {
	i := sort.Search(len(ix.entries), func(i int) bool {
		return ix.entries[i].key.Compare(key) >= 0
	})
	for ; i < len(ix.entries) && ix.entries[i].key.Compare(key) == 0; i++ {
		if ix.entries[i].rowID == rowID {
			ix.entries = append(ix.entries[:i], ix.entries[i+1:]...)
			return
		}
	}
}

// SeekEqual returns the row IDs whose key equals v.
func (ix *Index) SeekEqual(v catalog.Datum) []int {
	lo := sort.Search(len(ix.entries), func(i int) bool {
		return ix.entries[i].key.Compare(v) >= 0
	})
	var ids []int
	for i := lo; i < len(ix.entries) && ix.entries[i].key.Compare(v) == 0; i++ {
		ids = append(ids, ix.entries[i].rowID)
	}
	return ids
}

// SeekRange returns the row IDs with lo ≤ key ≤ hi, where a nil bound is
// unbounded and loInc/hiInc control bound inclusivity.
func (ix *Index) SeekRange(lo, hi *catalog.Datum, loInc, hiInc bool) []int {
	start := 0
	if lo != nil {
		start = sort.Search(len(ix.entries), func(i int) bool {
			c := ix.entries[i].key.Compare(*lo)
			if loInc {
				return c >= 0
			}
			return c > 0
		})
	}
	end := len(ix.entries)
	if hi != nil {
		end = sort.Search(len(ix.entries), func(i int) bool {
			c := ix.entries[i].key.Compare(*hi)
			if hiInc {
				return c > 0
			}
			return c >= 0
		})
	}
	if start >= end {
		return nil
	}
	ids := make([]int, 0, end-start)
	for i := start; i < end; i++ {
		ids = append(ids, ix.entries[i].rowID)
	}
	return ids
}
