package histogram

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"autostats/internal/catalog"
)

// MultiColumn is the asymmetric multi-column statistic of §7.1: a histogram
// on the leading column plus density information on each leading prefix.
// A statistic on (a,b,c) carries a histogram on a and densities for (a),
// (a,b) and (a,b,c); it is NOT symmetric in its columns.
//
// Density of a prefix is defined as 1 / (number of distinct prefix value
// combinations): the expected fraction of rows selected by equality
// predicates binding every column of the prefix.
type MultiColumn struct {
	Columns        []string
	Leading        *Histogram
	Densities      []float64
	PrefixDistinct []int64
	Rows           int64
}

// BuildMulti constructs a multi-column statistic from column tuples. Each
// tuple must have len(columns) datums, ordered to match columns.
func BuildMulti(kind Kind, columns []string, tuples [][]catalog.Datum, maxBuckets int) (*MultiColumn, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("histogram: multi-column statistic needs at least one column")
	}
	for _, t := range tuples {
		if len(t) != len(columns) {
			return nil, fmt.Errorf("histogram: tuple arity %d does not match %d columns", len(t), len(columns))
		}
	}
	leading := make([]catalog.Datum, len(tuples))
	for i, t := range tuples {
		leading[i] = t[0]
	}
	mc := &MultiColumn{
		Columns:        append([]string(nil), columns...),
		Leading:        build(kind, leading, maxBuckets),
		Densities:      make([]float64, len(columns)),
		PrefixDistinct: make([]int64, len(columns)),
		Rows:           int64(len(tuples)),
	}
	// The leading prefix's distinct count comes from the histogram itself —
	// distinct non-NULL values plus one combination for NULL when present —
	// so it uses the same value-equality (Datum.Compare) the estimator uses,
	// and single-pass and partition-merged builds agree exactly.
	dv := mc.Leading.Distinct
	if mc.Leading.NullRows > 0 {
		dv++
	}
	setPrefixDistinct(mc, 0, dv)
	// Count distinct combinations for each longer leading prefix.
	for k := 2; k <= len(columns); k++ {
		seen := make(map[string]struct{}, len(tuples))
		for _, t := range tuples {
			seen[encodePrefix(t[:k])] = struct{}{}
		}
		setPrefixDistinct(mc, k-1, int64(len(seen)))
	}
	return mc, nil
}

// encodePrefix renders a datum tuple as a collision-safe map key.
func encodePrefix(t []catalog.Datum) string {
	var key []byte
	for i := range t {
		key = appendPrefixDatum(key, &t[i])
	}
	return string(key)
}

// appendPrefixDatum appends one datum's part of a prefix key: "\x00N" for
// NULL, "\x00s<len>:<bytes>" for a string, "\x00f<hex bits>" for a float,
// "\x00i<decimal>" otherwise.
func appendPrefixDatum(key []byte, d *catalog.Datum) []byte {
	switch {
	case d.Null:
		return append(key, "\x00N"...)
	case d.T == catalog.String:
		key = append(key, "\x00s"...)
		key = strconv.AppendInt(key, int64(len(d.S)), 10)
		key = append(key, ':')
		return append(key, d.S...)
	case d.T == catalog.Float:
		key = append(key, "\x00f"...)
		return strconv.AppendUint(key, math.Float64bits(d.F), 16)
	default:
		key = append(key, "\x00i"...)
		return strconv.AppendInt(key, d.I, 10)
	}
}

// PrefixDensity returns the density of the k-column leading prefix
// (1-indexed: k=1 is the leading column alone). Out-of-range k returns 1.
func (mc *MultiColumn) PrefixDensity(k int) float64 {
	if k < 1 || k > len(mc.Densities) {
		return 1
	}
	return mc.Densities[k-1]
}

// DistinctPrefix returns the distinct combination count of the k-column
// leading prefix, or 0 when out of range.
func (mc *MultiColumn) DistinctPrefix(k int) int64 {
	if k < 1 || k > len(mc.PrefixDistinct) {
		return 0
	}
	return mc.PrefixDistinct[k-1]
}

// BuildCostUnits models the work to build a statistic over rows values of
// width cols: a sort (n log n) plus a bucketing pass, scaled by tuple width.
// The statistics manager charges these units as the "creation cost" and
// "update cost" of §8; wall-clock build time is measured separately and
// tracks these units closely since the builders do the real work.
func BuildCostUnits(rows int64, cols int) float64 {
	if rows <= 0 {
		return 1
	}
	n := float64(rows)
	return n*(math.Log2(n+2)+1)*float64(cols) + n
}

// String summarizes the statistic.
func (mc *MultiColumn) String() string {
	return fmt.Sprintf("multi-column(%s): %d rows, prefix distinct %v",
		strings.Join(mc.Columns, ","), mc.Rows, mc.PrefixDistinct)
}
