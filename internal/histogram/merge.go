package histogram

import (
	"fmt"

	"autostats/internal/catalog"
)

// Mergeable statistics construction. A table scan is cut into contiguous
// partitions, each partition is summarized into a Partial — an exact, sorted
// (value, frequency) list for the leading column plus per-prefix distinct
// sets — and MergePartials combines the partials and buckets the merged
// frequency list once. Because the bucket boundaries are chosen over the
// complete merged frequency list (not over pre-bucketed partial histograms),
// the merged result is bitwise-identical to a single-pass build/BuildMulti
// over the concatenated rows, regardless of partition count or order. That
// exactness is what the differential oracles in internal/oracle assert.

// Partial is the mergeable per-partition summary of a multi-column
// statistic's input: exact leading-column frequencies plus the distinct
// prefix combinations of every non-leading prefix. Build one per partition
// with a PartialBuilder (or BuildPartial) and combine with MergePartials.
type Partial struct {
	cols  int
	rows  int64
	nulls int64
	// freqs is the sorted, collapsed leading-column frequency list.
	freqs []valueFreq
	// prefixes[k-2] holds the encoded distinct combinations of the k-column
	// leading prefix, for k in 2..cols. The k=1 prefix is derived from freqs.
	prefixes []map[string]struct{}
}

// BuildPartial summarizes one partition of column tuples held in memory: a
// PartialBuilder fed the whole partition as one block. Each tuple must have
// len(columns) datums, ordered to match columns.
func BuildPartial(columns []string, tuples [][]catalog.Datum) (*Partial, error) {
	b, err := NewPartialBuilder(columns)
	if err != nil {
		return nil, err
	}
	if err := b.AddBlock(tuples); err != nil {
		return nil, err
	}
	return b.Finish(), nil
}

// MergePartials combines per-partition summaries into the final multi-column
// statistic. The result is identical to BuildMulti over the concatenation of
// the partitions, and is independent of the order of parts: the merged
// frequency list is sorted by value, and prefix sets union commutatively.
func MergePartials(kind Kind, columns []string, parts []*Partial, maxBuckets int) (*MultiColumn, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("histogram: multi-column statistic needs at least one column")
	}
	for _, p := range parts {
		if p.cols != len(columns) {
			return nil, fmt.Errorf("histogram: merging partial of %d columns into %d-column statistic", p.cols, len(columns))
		}
	}
	lists := make([][]valueFreq, len(parts))
	var rows, nulls int64
	for i, p := range parts {
		lists[i] = p.freqs
		rows += p.rows
		nulls += p.nulls
	}
	freqs := mergeFreqLists(lists)
	mc := &MultiColumn{
		Columns:        append([]string(nil), columns...),
		Leading:        buildFromFreqs(kind, freqs, nulls, maxBuckets),
		Densities:      make([]float64, len(columns)),
		PrefixDistinct: make([]int64, len(columns)),
		Rows:           rows,
	}
	// The k=1 prefix distinct count falls out of the merged frequency list:
	// every distinct non-NULL value plus one combination for NULL, exactly
	// what BuildMulti's encodePrefix set would count.
	dv := int64(len(freqs))
	if nulls > 0 {
		dv++
	}
	setPrefixDistinct(mc, 0, dv)
	for k := 2; k <= len(columns); k++ {
		union := make(map[string]struct{})
		for _, p := range parts {
			for key := range p.prefixes[k-2] {
				union[key] = struct{}{}
			}
		}
		setPrefixDistinct(mc, k-1, int64(len(union)))
	}
	return mc, nil
}

// setPrefixDistinct records a prefix distinct count and its density with
// BuildMulti's conventions (zero combinations yield density 1).
func setPrefixDistinct(mc *MultiColumn, idx int, dv int64) {
	mc.PrefixDistinct[idx] = dv
	if dv > 0 {
		mc.Densities[idx] = 1 / float64(dv)
	} else {
		mc.Densities[idx] = 1
	}
}

// mergeFreqLists merges sorted, collapsed frequency lists pairwise until one
// remains — O(total · log k) comparisons for k lists.
func mergeFreqLists(lists [][]valueFreq) []valueFreq {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	for len(lists) > 1 {
		merged := make([][]valueFreq, 0, (len(lists)+1)/2)
		for i := 0; i < len(lists); i += 2 {
			if i+1 < len(lists) {
				merged = append(merged, mergeFreqs(lists[i], lists[i+1]))
			} else {
				merged = append(merged, lists[i])
			}
		}
		lists = merged
	}
	return lists[0]
}

// mergeFreqs merges two sorted frequency lists, summing frequencies of equal
// values.
func mergeFreqs(a, b []valueFreq) []valueFreq {
	out := make([]valueFreq, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := a[i].v.Compare(b[j].v); {
		case c < 0:
			out = append(out, a[i])
			i++
		case c > 0:
			out = append(out, b[j])
			j++
		default:
			// Compare-equal across partitions: sum frequencies and keep the
			// tie-break-minimal representative, matching what a single sorted
			// pass over the concatenation would keep.
			rep := a[i].v
			if tieBreak(b[j].v, rep) < 0 {
				rep = b[j].v
			}
			out = append(out, valueFreq{v: rep, f: a[i].f + b[j].f})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// SplitTuples splits tuples into at most k contiguous partitions of
// near-equal size (k <= 1, or fewer tuples than partitions, degenerates
// gracefully). The partitions are subslices: no tuple is copied.
func SplitTuples(tuples [][]catalog.Datum, k int) [][][]catalog.Datum {
	if k < 1 {
		k = 1
	}
	if k > len(tuples) {
		k = len(tuples)
	}
	if k <= 1 {
		return [][][]catalog.Datum{tuples}
	}
	out := make([][][]catalog.Datum, 0, k)
	chunk := (len(tuples) + k - 1) / k
	for start := 0; start < len(tuples); start += chunk {
		end := start + chunk
		if end > len(tuples) {
			end = len(tuples)
		}
		out = append(out, tuples[start:end])
	}
	return out
}
