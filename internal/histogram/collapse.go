package histogram

import (
	"cmp"
	"math"
	"slices"

	"autostats/internal/catalog"
)

// Collapsing one typed run of a partition into its sorted (value, frequency)
// list. A full sort of the run is the general route, but most columns a
// tuning round builds have far fewer distinct values than rows, and for them
// counting first is cheaper and exact. Each run type has one collapse
// function, and it picks its route from the run itself:
//   - array: an int or date run whose span (max − min) is under
//     arraySpanFactor·len(run) is counted into an array indexed by
//     value − min, which is already in order;
//   - map: any other run is counted into a hash map, and only its D distinct
//     keys are sorted, as long as D stays at most len(run)/mapDistinctShare;
//   - sort: past that the map is abandoned and the run is sorted in full and
//     collapsed by collapseRun / collapseFloats.
//
// Thresholds, from a sweep over D on 8 192-row runs (2 vCPUs; the shapes
// BenchmarkPartialBuilderFinish keeps): counting into a map and sorting the
// D keys costs 0.28 (strings) to 0.47 (floats) of a full sort at D = len/8,
// 0.43–0.73 at len/4 and 0.58–1.24 at len/2, so the map is abandoned past
// len/8; abandoning it on an all-distinct run costs no more than the
// run-to-run noise of its sort. The array route at a span just under 2·len
// costs 0.34 of a full sort and 0.25 of the map route over the same values.
const (
	arraySpanFactor  = 2
	mapDistinctShare = 8
)

// route is one of the three ways a run is collapsed.
type route int

const (
	routeArray route = iota
	routeMap
	routeSort
	nRoutes
)

// counts is the counting scratch of one Finish call. Between calls the
// array is all zeros, the maps are empty and the key slices hold no strings.
type counts struct {
	arr       []int64
	ints      map[int64]int64
	floats    map[uint64]int64
	strs      map[string]int64
	intKeys   []int64
	floatKeys []uint64
	strKeys   []string
	// largest is the longest run the scratch has counted, which bounds
	// what its array and maps have grown to.
	largest int
}

// freeCounts passes the scratch from one Finish call to the next, across
// builders, as a builder passes its runs from one partition to the next. It
// is a free list rather than a sync.Pool because tune_offline collects
// garbage about once a round, and a pool emptied that often regrows its maps
// and array (+21 KB per round). It keeps one scratch per concurrent Finish
// up to four — a manager builds one statistic at a time, so more run at once
// only across tenants, and a fifth scratch is left to the collector — and
// none that counted a run longer than maxKeptRun (a production partition is
// at most 8 192 rows plus one block).
var freeCounts = make(chan *counts, 4)

const maxKeptRun = 1 << 15

func getCounts() *counts {
	select {
	case c := <-freeCounts:
		return c
	default:
		return new(counts)
	}
}

func putCounts(c *counts) {
	if c.largest > maxKeptRun {
		return
	}
	select {
	case freeCounts <- c:
	default:
	}
}

// distinctLimit is the most distinct values the map route keeps counting
// for a run of n values.
func distinctLimit(n int) int { return n / mapDistinctShare }

// collapseIntRun collapses an int or date run; datum makes the value's Datum.
func (c *counts) collapseIntRun(run []int64, datum func(int64) catalog.Datum) ([]valueFreq, route) {
	lo, hi := run[0], run[0]
	for _, v := range run[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	// In uint64 the span is exact even where hi − lo overflows int64.
	if span := uint64(hi) - uint64(lo); span < arraySpanFactor*uint64(len(run)) {
		return c.countArray(run, lo, int(span)+1, datum), routeArray
	}
	if c.ints == nil {
		c.ints = make(map[int64]int64)
	}
	if out := countOrdered(run, c.ints, &c.intKeys, datum); out != nil {
		return out, routeMap
	}
	slices.Sort(run)
	return collapseRun(run, datum), routeSort
}

// countArray is the array route: every value of run lies in [lo, lo+size).
func (c *counts) countArray(run []int64, lo int64, size int, datum func(int64) catalog.Datum) []valueFreq {
	if cap(c.arr) < size {
		c.arr = make([]int64, size)
	}
	arr := c.arr[:size]
	for _, v := range run {
		arr[uint64(v)-uint64(lo)]++
	}
	distinct := 0
	for _, n := range arr {
		if n != 0 {
			distinct++
		}
	}
	out := make([]valueFreq, 0, distinct)
	for i, n := range arr {
		if n != 0 {
			out = append(out, valueFreq{v: datum(int64(uint64(lo) + uint64(i))), f: n})
			arr[i] = 0
		}
	}
	return out
}

// collapseStringRun collapses a string run.
func (c *counts) collapseStringRun(run []string) ([]valueFreq, route) {
	if c.strs == nil {
		c.strs = make(map[string]int64)
	}
	if out := countOrdered(run, c.strs, &c.strKeys, catalog.NewString); out != nil {
		return out, routeMap
	}
	slices.Sort(run)
	return collapseRun(run, catalog.NewString), routeSort
}

// countOrdered is the map route for a type whose native order is
// Datum.Compare's: it counts run into m and returns the frequency list in
// key order, or nil once m holds more than distinctLimit keys. It leaves m
// empty and *keys cleared either way.
func countOrdered[T cmp.Ordered](run []T, m map[T]int64, keys *[]T, datum func(T) catalog.Datum) []valueFreq {
	defer clear(m)
	limit := distinctLimit(len(run))
	for _, v := range run {
		m[v]++
		if len(m) > limit {
			return nil
		}
	}
	ks := (*keys)[:0]
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	out := make([]valueFreq, len(ks))
	for i, k := range ks {
		out[i] = valueFreq{v: datum(k), f: m[k]}
	}
	clear(ks)
	*keys = ks
	return out
}

// collapseFloatRun collapses a float run. The map route counts by bit
// pattern and orders the keys by (cmp.Compare, bits), so a group of
// Compare-equal values (−0 and +0; every NaN) is contiguous and led by the
// member with the smallest bit pattern — the representative collapseFloats
// keeps.
func (c *counts) collapseFloatRun(run []float64) ([]valueFreq, route) {
	if c.floats == nil {
		c.floats = make(map[uint64]int64)
	}
	m := c.floats
	defer clear(m)
	limit := distinctLimit(len(run))
	for _, v := range run {
		m[math.Float64bits(v)]++
		if len(m) > limit {
			slices.Sort(run)
			return collapseFloats(run), routeSort
		}
	}
	keys := c.floatKeys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b uint64) int {
		return cmp.Or(cmp.Compare(math.Float64frombits(a), math.Float64frombits(b)), cmp.Compare(a, b))
	})
	c.floatKeys = keys
	distinct := 1
	for i := 1; i < len(keys); i++ {
		if cmp.Compare(math.Float64frombits(keys[i]), math.Float64frombits(keys[i-1])) != 0 {
			distinct++
		}
	}
	out := make([]valueFreq, 0, distinct)
	for i := 0; i < len(keys); {
		rep := math.Float64frombits(keys[i])
		f := m[keys[i]]
		j := i + 1
		for ; j < len(keys) && cmp.Compare(math.Float64frombits(keys[j]), rep) == 0; j++ {
			f += m[keys[j]]
		}
		out = append(out, valueFreq{v: catalog.NewFloat(rep), f: f})
		i = j
	}
	return out, routeMap
}

// collapseRun turns a sorted run of one type's payloads into its frequency
// list, allocated once at its exact length.
func collapseRun[T comparable](run []T, datum func(T) catalog.Datum) []valueFreq {
	distinct := 1
	for i := 1; i < len(run); i++ {
		if run[i] != run[i-1] {
			distinct++
		}
	}
	out := make([]valueFreq, 0, distinct)
	for i := 0; i < len(run); {
		j := i + 1
		for j < len(run) && run[j] == run[i] {
			j++
		}
		out = append(out, valueFreq{v: datum(run[i]), f: int64(j - i)})
		i = j
	}
	return out
}

// collapseFloats is collapseRun for the sorted float run, where equal
// values need not be identical: a group is what Datum.Compare calls equal
// (-0 and +0; every NaN), and its representative is the member with the
// smallest bit pattern — the one tieBreak puts first.
func collapseFloats(run []float64) []valueFreq {
	distinct := 1
	for i := 1; i < len(run); i++ {
		if cmp.Compare(run[i], run[i-1]) != 0 {
			distinct++
		}
	}
	out := make([]valueFreq, 0, distinct)
	for i := 0; i < len(run); {
		rep := run[i]
		j := i + 1
		for ; j < len(run) && cmp.Compare(run[j], run[i]) == 0; j++ {
			if math.Float64bits(run[j]) < math.Float64bits(rep) {
				rep = run[j]
			}
		}
		out = append(out, valueFreq{v: catalog.NewFloat(rep), f: int64(j - i)})
		i = j
	}
	return out
}
