// Package histogram implements the statistics summary structures: equi-depth
// and MaxDiff single-column histograms, and the asymmetric multi-column
// statistic used by Microsoft SQL Server 7.0 (histogram on the leading
// column plus density information on each leading prefix), as described in
// §3 and §7.1 of the paper.
//
// The selection algorithms in internal/core are deliberately oblivious to
// the histogram variant (§1: "the proposed algorithms do not depend on the
// specific structure of statistics used in a DBMS").
package histogram

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"autostats/internal/catalog"
)

// Kind identifies the histogram construction strategy.
type Kind int

const (
	// EquiDepth buckets hold (approximately) equal row counts.
	EquiDepth Kind = iota
	// MaxDiff places bucket boundaries at the largest adjacent frequency
	// differences (Poosala et al., SIGMOD 1996 [14] in the paper).
	MaxDiff
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case EquiDepth:
		return "equi-depth"
	case MaxDiff:
		return "maxdiff"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// defaultBuckets is the bucket budget used when callers do not specify one.
// SQL Server 7.0 statistics held up to 200 histogram steps.
const defaultBuckets = 200

// Bucket summarizes a value range [Lo, Hi] (both inclusive).
type Bucket struct {
	Lo, Hi   catalog.Datum
	Rows     int64
	Distinct int64
}

// Histogram is a single-column distribution summary.
type Histogram struct {
	Kind     Kind
	Buckets  []Bucket
	Rows     int64 // non-NULL rows summarized
	NullRows int64
	Distinct int64 // distinct non-NULL values
}

// totalRows returns all rows summarized, including NULLs.
func (h *Histogram) totalRows() int64 { return h.Rows + h.NullRows }

// valueFreq is an intermediate (value, frequency) pair.
type valueFreq struct {
	v catalog.Datum
	f int64
}

// tieBreak orders Compare-equal datums deterministically. Datum.Compare is a
// total order over values but treats cross-type numerics as equal (3 == 3.0),
// so the representative kept after collapsing duplicates would otherwise
// depend on input order — and a partition-merged build could disagree with a
// single-pass build over the same rows. Collapsing still groups by Compare;
// tieBreak only pins which member of the group represents it.
func tieBreak(a, b catalog.Datum) int {
	if a.Null != b.Null {
		if a.Null {
			return -1
		}
		return 1
	}
	if a.T != b.T {
		if a.T < b.T {
			return -1
		}
		return 1
	}
	if a.I != b.I {
		if a.I < b.I {
			return -1
		}
		return 1
	}
	if ab, bb := math.Float64bits(a.F), math.Float64bits(b.F); ab != bb {
		if ab < bb {
			return -1
		}
		return 1
	}
	return strings.Compare(a.S, b.S)
}

// cmpValue is Compare with the deterministic tie-break applied to equals.
func cmpValue(a, b catalog.Datum) int {
	if c := a.Compare(b); c != 0 {
		return c
	}
	return tieBreak(a, b)
}

func collectFreqs(values []catalog.Datum) (freqs []valueFreq, nulls int64) {
	sorted := make([]catalog.Datum, 0, len(values))
	for _, v := range values {
		if v.Null {
			nulls++
			continue
		}
		sorted = append(sorted, v)
	}
	sort.Slice(sorted, func(i, j int) bool { return cmpValue(sorted[i], sorted[j]) < 0 })
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j].Compare(sorted[i]) == 0 {
			j++
		}
		freqs = append(freqs, valueFreq{v: sorted[i], f: int64(j - i)})
		i = j
	}
	return freqs, nulls
}

// build constructs a histogram of the given kind over the column values
// with at most maxBuckets buckets (defaultBuckets if maxBuckets <= 0).
func build(kind Kind, values []catalog.Datum, maxBuckets int) *Histogram {
	freqs, nulls := collectFreqs(values)
	return buildFromFreqs(kind, freqs, nulls, maxBuckets)
}

// buildFromFreqs buckets an already-sorted, collapsed (value, frequency) list.
// It is the single bucketing entry point shared by build and MergePartials, so
// a merged build is bitwise-identical to a single-pass build over the same
// rows.
func buildFromFreqs(kind Kind, freqs []valueFreq, nulls int64, maxBuckets int) *Histogram {
	if maxBuckets <= 0 {
		maxBuckets = defaultBuckets
	}
	h := &Histogram{Kind: kind, NullRows: nulls, Distinct: int64(len(freqs))}
	for _, vf := range freqs {
		h.Rows += vf.f
	}
	if len(freqs) == 0 {
		return h
	}
	switch kind {
	case MaxDiff:
		h.Buckets = buildMaxDiff(freqs, maxBuckets)
	default:
		h.Buckets = buildEquiDepth(freqs, maxBuckets)
	}
	return h
}

// buildEquiDepth greedily fills buckets to a target depth of rows/maxBuckets,
// never splitting a single value across buckets.
func buildEquiDepth(freqs []valueFreq, maxBuckets int) []Bucket {
	var total int64
	for _, vf := range freqs {
		total += vf.f
	}
	target := total / int64(maxBuckets)
	if target < 1 {
		target = 1
	}
	var out []Bucket
	cur := Bucket{Lo: freqs[0].v}
	for i, vf := range freqs {
		cur.Rows += vf.f
		cur.Distinct++
		cur.Hi = vf.v
		lastValue := i == len(freqs)-1
		bucketFull := cur.Rows >= target && len(out) < maxBuckets-1
		if lastValue || bucketFull {
			out = append(out, cur)
			if !lastValue {
				cur = Bucket{Lo: freqs[i+1].v}
			}
		}
	}
	return out
}

// buildMaxDiff places boundaries after the maxBuckets-1 largest adjacent
// frequency differences, producing buckets of near-uniform internal
// frequency (the MaxDiff(V,F) variant).
func buildMaxDiff(freqs []valueFreq, maxBuckets int) []Bucket {
	if len(freqs) <= maxBuckets {
		// One singleton bucket per distinct value: exact distribution.
		out := make([]Bucket, len(freqs))
		for i, vf := range freqs {
			out[i] = Bucket{Lo: vf.v, Hi: vf.v, Rows: vf.f, Distinct: 1}
		}
		return out
	}
	type diff struct {
		pos int // boundary after freqs[pos]
		d   int64
	}
	diffs := make([]diff, 0, len(freqs)-1)
	for i := 0; i+1 < len(freqs); i++ {
		d := freqs[i+1].f - freqs[i].f
		if d < 0 {
			d = -d
		}
		diffs = append(diffs, diff{pos: i, d: d})
	}
	sort.Slice(diffs, func(a, b int) bool {
		if diffs[a].d != diffs[b].d {
			return diffs[a].d > diffs[b].d
		}
		return diffs[a].pos < diffs[b].pos
	})
	nb := maxBuckets - 1
	if nb > len(diffs) {
		nb = len(diffs)
	}
	cuts := make([]int, nb)
	for i := 0; i < nb; i++ {
		cuts[i] = diffs[i].pos
	}
	sort.Ints(cuts)
	var out []Bucket
	start := 0
	emit := func(end int) { // bucket over freqs[start..end] inclusive
		b := Bucket{Lo: freqs[start].v, Hi: freqs[end].v, Distinct: int64(end - start + 1)}
		for i := start; i <= end; i++ {
			b.Rows += freqs[i].f
		}
		out = append(out, b)
		start = end + 1
	}
	for _, c := range cuts {
		emit(c)
	}
	emit(len(freqs) - 1)
	return out
}

// SelectivityEq estimates the fraction of rows with value v, using the
// uniform-within-bucket assumption (bucket rows spread over bucket distinct
// values).
func (h *Histogram) SelectivityEq(v catalog.Datum) float64 {
	total := float64(h.totalRows())
	if total == 0 {
		return 0
	}
	for _, b := range h.Buckets {
		if v.Compare(b.Lo) >= 0 && v.Compare(b.Hi) <= 0 {
			d := b.Distinct
			if d < 1 {
				d = 1
			}
			return float64(b.Rows) / float64(d) / total
		}
	}
	return 0
}

// SelectivityLess estimates the fraction of rows with value < v
// (or ≤ v when inclusive), interpolating linearly inside the boundary
// bucket via the datum's float rank.
func (h *Histogram) SelectivityLess(v catalog.Datum, inclusive bool) float64 {
	total := float64(h.totalRows())
	if total == 0 {
		return 0
	}
	var rows float64
	for _, b := range h.Buckets {
		if v.Compare(b.Lo) < 0 {
			break
		}
		if v.Compare(b.Hi) >= 0 {
			rows += float64(b.Rows)
			if !inclusive && v.Compare(b.Hi) == 0 {
				// Remove the estimated frequency of v itself.
				d := b.Distinct
				if d < 1 {
					d = 1
				}
				rows -= float64(b.Rows) / float64(d)
			}
			continue
		}
		// v falls strictly inside (Lo, Hi): interpolate.
		lo, hi, x := b.Lo.ToFloat(), b.Hi.ToFloat(), v.ToFloat()
		frac := 0.5
		if hi > lo {
			frac = (x - lo) / (hi - lo)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
		}
		rows += float64(b.Rows) * frac
		break
	}
	if rows < 0 {
		rows = 0
	}
	return clamp01(rows / total)
}

// NullFraction returns the fraction of NULL rows.
func (h *Histogram) NullFraction() float64 {
	total := float64(h.totalRows())
	if total == 0 {
		return 0
	}
	return float64(h.NullRows) / total
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// String summarizes the histogram for debugging.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s histogram: %d rows (%d null), %d distinct, %d buckets",
		h.Kind, h.totalRows(), h.NullRows, h.Distinct, len(h.Buckets))
	return b.String()
}
