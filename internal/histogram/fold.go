package histogram

import (
	"sort"

	"autostats/internal/catalog"
)

// Folding row deltas into an existing histogram instead of rebuilding it.
// Bucket row counts, totals and NULL counts stay exact under folding; bucket
// boundaries, distinct counts and prefix densities are left as built. The
// statistics manager does not fold: every refresh is a full build, because
// a measured trial found folding never served a refresh under the §6
// counter trigger. FoldMulti and Clone remain only as the subject of the
// benchmark's histogram.fold_us_per_row probe and go with it.

// clone returns a deep copy of the histogram; folding always operates on a
// clone so the input stays an immutable snapshot.
func (h *Histogram) clone() *Histogram {
	c := *h
	c.Buckets = append([]Bucket(nil), h.Buckets...)
	return &c
}

// clone returns a deep copy of the multi-column statistic.
func (mc *MultiColumn) clone() *MultiColumn {
	c := *mc
	c.Columns = append([]string(nil), mc.Columns...)
	c.Leading = mc.Leading.clone()
	c.Densities = append([]float64(nil), mc.Densities...)
	c.PrefixDistinct = append([]int64(nil), mc.PrefixDistinct...)
	return &c
}

// FoldMulti returns a clone of mc with the leading-column values of inserted
// and deleted rows folded into the leading histogram and the row totals. The
// input statistic is not modified. Distinct counts and prefix densities are
// intentionally left stale.
func FoldMulti(mc *MultiColumn, inserts, deletes []catalog.Datum) *MultiColumn {
	out := mc.clone()
	h := out.Leading
	for _, v := range inserts {
		h.foldInsert(v)
	}
	for _, v := range deletes {
		h.foldDelete(v)
	}
	out.Rows += int64(len(inserts)) - int64(len(deletes))
	if out.Rows < 0 {
		out.Rows = 0
	}
	return out
}

// bucketFor locates the bucket that should absorb v: the first bucket whose
// upper bound is >= v. Returns len(Buckets) when v lies above every bucket.
func (h *Histogram) bucketFor(v catalog.Datum) int {
	return sort.Search(len(h.Buckets), func(i int) bool {
		return v.Compare(h.Buckets[i].Hi) <= 0
	})
}

// foldInsert adds one row with value v. Out-of-range values extend the
// nearest bucket's boundary so the histogram keeps covering the live domain.
func (h *Histogram) foldInsert(v catalog.Datum) {
	if v.Null {
		h.NullRows++
		return
	}
	if len(h.Buckets) == 0 {
		h.Buckets = append(h.Buckets, Bucket{Lo: v, Hi: v, Rows: 1, Distinct: 1})
		h.Rows++
		h.Distinct++
		return
	}
	i := h.bucketFor(v)
	if i == len(h.Buckets) {
		i--
		h.Buckets[i].Hi = v
	} else if v.Compare(h.Buckets[i].Lo) < 0 {
		h.Buckets[i].Lo = v
	}
	h.Buckets[i].Rows++
	h.Rows++
}

// foldDelete removes one row with value v. Values outside every bucket only
// adjust the totals: the histogram never summarized them.
func (h *Histogram) foldDelete(v catalog.Datum) {
	if v.Null {
		if h.NullRows > 0 {
			h.NullRows--
		}
		return
	}
	if h.Rows > 0 {
		h.Rows--
	}
	if i := h.bucketFor(v); i < len(h.Buckets) && v.Compare(h.Buckets[i].Lo) >= 0 && h.Buckets[i].Rows > 0 {
		h.Buckets[i].Rows--
	}
}
