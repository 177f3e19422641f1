package oracle

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"autostats/internal/catalog"
	"autostats/internal/executor"
	"autostats/internal/query"
)

// floatAggTol is the relative tolerance applied when comparing SUM/AVG
// outputs: the optimized plan and the reference evaluator add the same
// float values in different orders, so the sums may differ in the last few
// bits. Everything else — raw column values, counts, MIN/MAX, group keys —
// is compared exactly.
const floatAggTol = 1e-9

// compareResults diffs the optimized execution of q against the reference
// evaluation as multisets. It returns "" when they agree, otherwise a
// human-readable description of the first discrepancy.
func compareResults(q *query.Select, got *executor.Result, want *NaiveResult) string {
	if d := compareColumnSets(got.Cols, want.Cols); d != "" {
		return d
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("row count mismatch: optimized %d, reference %d", len(got.Rows), len(want.Rows))
	}
	if len(q.GroupBy) > 0 || len(naiveAggregateSet(q)) > 0 {
		if d := compareAggregated(q, got, want); d != "" {
			return d
		}
	} else if d := compareExact(got, want); d != "" {
		return d
	}
	if len(q.OrderBy) > 0 {
		if d := checkSorted(q, got); d != "" {
			return d
		}
	}
	return ""
}

func compareColumnSets(got, want map[string]int) string {
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Sprintf("optimized output has unexpected column %q", k)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			return fmt.Sprintf("optimized output is missing column %q", k)
		}
	}
	return ""
}

// sortedCols returns the shared column keys in deterministic order.
func sortedCols(cols map[string]int) []string {
	out := make([]string, 0, len(cols))
	for k := range cols {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// compareExact matches two row multisets cell-for-cell: every value in a
// non-aggregated result is read verbatim from storage by both executors, so
// even floats must agree exactly.
func compareExact(got *executor.Result, want *NaiveResult) string {
	keys := sortedCols(want.Cols)
	gpos := make([]int, len(keys))
	wpos := make([]int, len(keys))
	for i, k := range keys {
		gpos[i] = got.Cols[k]
		wpos[i] = want.Cols[k]
	}
	enc := func(rows [][]catalog.Datum, pos []int) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = encodeDatums(r, pos)
		}
		sort.Strings(out)
		return out
	}
	g, w := enc(got.Rows, gpos), enc(want.Rows, wpos)
	for i := range g {
		if g[i] != w[i] {
			return fmt.Sprintf("row multiset mismatch at sorted position %d:\n  optimized: %s\n  reference: %s", i, g[i], w[i])
		}
	}
	return ""
}

// compareAggregated matches aggregate output by group key. Group keys are
// unique per result, so each side indexes rows by encoded group key and the
// aggregate cells are compared with float tolerance where both sides carry
// floats (SUM/AVG accumulation order differs between plans).
func compareAggregated(q *query.Select, got *executor.Result, want *NaiveResult) string {
	groupCols := q.GroupingColumns()
	gkeys := make([]string, len(groupCols))
	for i, g := range groupCols {
		gkeys[i] = colRefKey(g)
	}
	aggKeys := make([]string, 0, len(want.Cols)-len(groupCols))
	for k := range want.Cols {
		isGroup := false
		for _, g := range gkeys {
			if k == g {
				isGroup = true
				break
			}
		}
		if !isGroup {
			aggKeys = append(aggKeys, k)
		}
	}
	sort.Strings(aggKeys)

	index := func(rows [][]catalog.Datum, cols map[string]int) (map[string][]catalog.Datum, string) {
		gpos := make([]int, len(gkeys))
		for i, k := range gkeys {
			gpos[i] = cols[k]
		}
		m := make(map[string][]catalog.Datum, len(rows))
		for _, r := range rows {
			k := encodeDatums(r, gpos)
			if _, dup := m[k]; dup {
				return nil, k
			}
			m[k] = r
		}
		return m, ""
	}
	gm, dup := index(got.Rows, got.Cols)
	if gm == nil {
		return fmt.Sprintf("optimized output repeats group key %q", dup)
	}
	wm, dup := index(want.Rows, want.Cols)
	if wm == nil {
		return fmt.Sprintf("reference output repeats group key %q", dup)
	}
	for k, wr := range wm {
		gr, ok := gm[k]
		if !ok {
			return fmt.Sprintf("optimized output is missing group %q", k)
		}
		for _, ak := range aggKeys {
			gv, wv := gr[got.Cols[ak]], wr[want.Cols[ak]]
			if !datumsClose(gv, wv) {
				return fmt.Sprintf("group %q aggregate %q mismatch: optimized %s, reference %s", k, ak, gv, wv)
			}
		}
	}
	return ""
}

// datumsClose compares two aggregate outputs: exact, except Float-vs-Float
// which allows floatAggTol relative error.
func datumsClose(a, b catalog.Datum) bool {
	if a.Null || b.Null {
		return a.Null == b.Null
	}
	if a.T == catalog.Float && b.T == catalog.Float {
		if a.F == b.F {
			return true
		}
		diff := math.Abs(a.F - b.F)
		scale := math.Max(math.Abs(a.F), math.Abs(b.F))
		return diff <= floatAggTol*scale
	}
	var sa, sb strings.Builder
	encodeDatum(&sa, a)
	encodeDatum(&sb, b)
	return sa.String() == sb.String()
}

// checkSorted verifies the optimized output really is ordered by the
// ORDER BY columns (the reference evaluator never sorts, so ordering is
// checked as a property of the optimized result alone).
func checkSorted(q *query.Select, got *executor.Result) string {
	pos := make([]int, 0, len(q.OrderBy))
	for _, c := range q.OrderBy {
		p, ok := got.Cols[colRefKey(c)]
		if !ok {
			return fmt.Sprintf("ORDER BY column %s missing from optimized output", c)
		}
		pos = append(pos, p)
	}
	for i := 1; i < len(got.Rows); i++ {
		for _, p := range pos {
			c := got.Rows[i-1][p].Compare(got.Rows[i][p])
			if c < 0 {
				break
			}
			if c > 0 {
				return fmt.Sprintf("optimized output not sorted: row %d > row %d on ORDER BY", i-1, i)
			}
		}
	}
	return ""
}
