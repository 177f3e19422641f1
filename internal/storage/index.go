package storage

import (
	"sort"

	"autostats/internal/catalog"
)

type indexEntry struct {
	key   catalog.Datum
	rowID int
}

// index is a sorted secondary index over one column. Lookups binary-search
// the entry slice; inserts keep it sorted. This models a B-tree closely
// enough for cost purposes (O(log n) seek + O(matches) scan). It is read and
// written only under its table's lock.
type index struct {
	entries []indexEntry
}

func (ix *index) insert(key catalog.Datum, rowID int) {
	i := sort.Search(len(ix.entries), func(i int) bool {
		return ix.entries[i].key.Compare(key) >= 0
	})
	ix.entries = append(ix.entries, indexEntry{})
	copy(ix.entries[i+1:], ix.entries[i:])
	ix.entries[i] = indexEntry{key: key, rowID: rowID}
}

func (ix *index) remove(key catalog.Datum, rowID int) {
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

// span returns the entries [start, end) with lo ≤ key ≤ hi, found by two
// binary searches. A nil bound is unbounded; loInc/hiInc control bound
// inclusivity. start ≥ end means the range is empty.
func (ix *index) span(lo, hi *catalog.Datum, loInc, hiInc bool) (start, end int) {
	end = len(ix.entries)
	if lo != nil {
		start = sort.Search(len(ix.entries), func(i int) bool {
			c := ix.entries[i].key.Compare(*lo)
			if loInc {
				return c >= 0
			}
			return c > 0
		})
	}
	if hi != nil {
		end = sort.Search(len(ix.entries), func(i int) bool {
			c := ix.entries[i].key.Compare(*hi)
			if hiInc {
				return c > 0
			}
			return c >= 0
		})
	}
	return start, end
}
