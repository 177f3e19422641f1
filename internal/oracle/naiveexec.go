// Package oracle is a seeded, deterministic randomized-testing subsystem
// for the auto-stats pipeline. It provides four oracles:
//
//   - a differential result oracle: every generated query is executed twice,
//     once through the optimized plan and once through a trivially correct
//     reference evaluator (this file), and the result multisets are diffed;
//   - metamorphic plan oracles: cost-monotonicity in the pinned selectivity
//     variables (§4 of the paper), extreme-plan bracketing and t-equivalence
//     ground truth, and Shrinking Set plan preservation (§5.2);
//   - statistics fault injection: a stats.Provider wrapper and Manager
//     failpoints that simulate refresh failures, stale epochs and torn
//     snapshots, proving the plan cache never serves a poisoned plan;
//   - a CLI (cmd/oracle) running all of the above from a seed, in a short
//     deterministic mode for tier-1 tests and a duration-bounded mode for
//     nightly CI.
//
// Everything is driven by a single int64 seed; a reported failure prints
// the seed and statement index needed to replay it.
package oracle

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"autostats/internal/catalog"
	"autostats/internal/query"
	"autostats/internal/storage"
)

// NaiveResult is the output of the reference evaluator, shaped like
// executor.Result so the two can be diffed.
type NaiveResult struct {
	// Cols maps "table.column" (or an Aggregate.Key) to column position.
	Cols map[string]int
	// Rows is the output row multiset, in no particular order.
	Rows [][]catalog.Datum
}

// errBudget is returned when a naive evaluation would materialize more
// intermediate rows than the caller's budget; the differential oracle
// counts such queries as skipped rather than failed.
var errBudget = fmt.Errorf("oracle: naive evaluation exceeded the row budget")

// NaiveExecute evaluates q against db using only full table scans and
// FROM-order nested-loop joins — no indexes, no join reordering, no hash or
// merge strategies — so it shares no planning or physical-operator code
// with the optimizer/executor stack it checks. Join predicates are applied
// as soon as both sides are present (every FROM prefix the workload
// generator emits is FK-connected, so intermediates stay near final size).
// maxRows bounds any intermediate relation; exceeding it returns errBudget.
// A maxRows <= 0 means unbounded.
//
// Semantics replicated from the SQL subset the executor implements:
// comparisons involving NULL are false (so NULL join keys never match),
// aggregates skip NULL inputs, empty aggregation yields NULL except
// COUNT(*) which yields 0, HAVING filters aggregate output, and grouped
// queries output group columns then aggregates keyed by Aggregate.Key().
// Non-grouped queries output every column of every FROM table.
func NaiveExecute(db *storage.Database, q *query.Select, maxRows int) (*NaiveResult, error) {
	if maxRows <= 0 {
		maxRows = int(^uint(0) >> 1)
	}
	joined, err := naiveJoin(db, q, maxRows)
	if err != nil {
		return nil, err
	}
	aggs := naiveAggregateSet(q)
	groupCols := q.GroupingColumns()
	if len(groupCols) == 0 && len(aggs) == 0 {
		return joined, nil
	}
	return naiveAggregate(joined, q, groupCols, aggs)
}

// naiveJoin produces the filtered join of all FROM tables in FROM order.
func naiveJoin(db *storage.Database, q *query.Select, maxRows int) (*NaiveResult, error) {
	out := &NaiveResult{Cols: make(map[string]int)}
	for _, tname := range q.Tables {
		td, err := db.Table(tname)
		if err != nil {
			return nil, err
		}
		tn := strings.ToLower(td.Schema.Name)
		// Positions of this table's columns in the joined row.
		offset := len(out.Cols)
		tcols := make(map[string]int, len(td.Schema.Columns))
		for i, c := range td.Schema.Columns {
			key := tn + "." + strings.ToLower(c.Name)
			out.Cols[key] = offset + i
			tcols[strings.ToLower(c.Name)] = i
		}

		// Scan and filter this table's rows up front. The rows are copied:
		// a stored row is valid only while Scan's visitor runs, and the
		// reference does not lend rows as the executor does.
		filters := q.FiltersOn(tn)
		var trows [][]catalog.Datum
		var scanErr error
		td.Scan(func(_ int, r storage.Row) bool {
			for _, f := range filters {
				p, ok := tcols[strings.ToLower(f.Col.Column)]
				if !ok {
					scanErr = fmt.Errorf("oracle: filter column %s not in table %s", f.Col, tn)
					return false
				}
				match, err := f.Op.Eval(r[p], f.Val)
				if err != nil {
					scanErr = fmt.Errorf("oracle: evaluating %s: %w", f, err)
					return false
				}
				if !match {
					return true
				}
			}
			trows = append(trows, slices.Clone(r))
			return true
		})
		if scanErr != nil {
			return nil, scanErr
		}

		// Join predicates that become evaluable once this table is added:
		// both endpoints resolved, at least one endpoint is this table.
		var preds []query.JoinPred
		for _, j := range q.Joins {
			lk, rk := colRefKey(j.Left), colRefKey(j.Right)
			lNew, rNew := strings.EqualFold(j.Left.Table, tn), strings.EqualFold(j.Right.Table, tn)
			if !lNew && !rNew {
				continue
			}
			_, lOK := out.Cols[lk]
			_, rOK := out.Cols[rk]
			if lOK && rOK {
				preds = append(preds, j)
			}
		}

		if out.Rows == nil && offset == 0 {
			// First table: seed the accumulator (self-joins are impossible,
			// so preds is empty here).
			out.Rows = trows
			if len(out.Rows) > maxRows {
				return nil, errBudget
			}
			continue
		}

		var next [][]catalog.Datum
		for _, acc := range out.Rows {
			for _, r := range trows {
				combined := append(append([]catalog.Datum(nil), acc...), r...)
				ok := true
				for _, j := range preds {
					match, err := query.Eq.Eval(combined[out.Cols[colRefKey(j.Left)]], combined[out.Cols[colRefKey(j.Right)]])
					if err != nil {
						return nil, fmt.Errorf("oracle: evaluating join %s: %w", j, err)
					}
					if !match {
						ok = false
						break
					}
				}
				if ok {
					next = append(next, combined)
					if len(next) > maxRows {
						return nil, errBudget
					}
				}
			}
		}
		out.Rows = next
	}
	return out, nil
}

func colRefKey(c query.ColumnRef) string {
	return strings.ToLower(c.Table) + "." + strings.ToLower(c.Column)
}

// naiveAggregateSet unions the SELECT-list aggregates with the extra ones
// HAVING references, deduplicated by output key — the same contract the
// optimizer hands the executor.
func naiveAggregateSet(q *query.Select) []query.Aggregate {
	out := append([]query.Aggregate(nil), q.Aggregates...)
	seen := make(map[string]bool, len(out))
	for _, a := range out {
		seen[a.Key()] = true
	}
	for _, h := range q.Having {
		if !seen[h.Agg.Key()] {
			seen[h.Agg.Key()] = true
			out = append(out, h.Agg)
		}
	}
	return out
}

// naiveAgg accumulates one aggregate over one group with SQL NULL
// semantics: NULL inputs are skipped; an empty accumulation yields NULL,
// except COUNT which yields 0. SUM over an integer column returns an
// integer (accumulated in float64, matching the executor's currency).
type naiveAgg struct {
	fn    query.AggFunc
	pos   int // joined-row position; -1 for COUNT(*)
	count int64
	sum   float64
	isInt bool
	min   catalog.Datum
	max   catalog.Datum
	seen  bool
}

func (a *naiveAgg) add(row []catalog.Datum) {
	if a.fn == query.CountStar {
		a.count++
		return
	}
	v := row[a.pos]
	if v.Null {
		return
	}
	a.count++
	switch a.fn {
	case query.Sum, query.Avg:
		if v.T == catalog.Float {
			a.sum += v.F
		} else {
			a.sum += float64(v.I)
			a.isInt = v.T == catalog.Int
		}
	case query.Min:
		if !a.seen || v.Compare(a.min) < 0 {
			a.min = v
		}
	case query.Max:
		if !a.seen || v.Compare(a.max) > 0 {
			a.max = v
		}
	}
	a.seen = true
}

func (a *naiveAgg) result() catalog.Datum {
	switch a.fn {
	case query.CountStar, query.Count:
		return catalog.NewInt(a.count)
	case query.Sum:
		if a.count == 0 {
			return catalog.NewNull(catalog.Float)
		}
		if a.isInt {
			return catalog.NewInt(int64(a.sum))
		}
		return catalog.NewFloat(a.sum)
	case query.Avg:
		if a.count == 0 {
			return catalog.NewNull(catalog.Float)
		}
		return catalog.NewFloat(a.sum / float64(a.count))
	case query.Min:
		if !a.seen {
			return catalog.NewNull(catalog.Float)
		}
		return a.min
	case query.Max:
		if !a.seen {
			return catalog.NewNull(catalog.Float)
		}
		return a.max
	default:
		return catalog.NewNull(catalog.Float)
	}
}

// naiveAggregate groups the joined rows and evaluates aggregates and
// HAVING. With no group columns it produces exactly one (scalar) row even
// over empty input.
func naiveAggregate(joined *NaiveResult, q *query.Select, groupCols []query.ColumnRef, aggs []query.Aggregate) (*NaiveResult, error) {
	gpos := make([]int, len(groupCols))
	for i, g := range groupCols {
		p, ok := joined.Cols[colRefKey(g)]
		if !ok {
			return nil, fmt.Errorf("oracle: group column %s not in joined result", g)
		}
		gpos[i] = p
	}
	apos := make([]int, len(aggs))
	for i, a := range aggs {
		apos[i] = -1
		if a.Func != query.CountStar {
			p, ok := joined.Cols[colRefKey(a.Col)]
			if !ok {
				return nil, fmt.Errorf("oracle: aggregate column %s not in joined result", a.Col)
			}
			apos[i] = p
		}
	}

	type group struct {
		key  []catalog.Datum
		aggr []naiveAgg
	}
	newGroup := func(row []catalog.Datum) *group {
		g := &group{aggr: make([]naiveAgg, len(aggs))}
		for i := range aggs {
			g.aggr[i] = naiveAgg{fn: aggs[i].Func, pos: apos[i]}
		}
		if row != nil {
			g.key = make([]catalog.Datum, len(gpos))
			for i, p := range gpos {
				g.key[i] = row[p]
			}
		}
		return g
	}
	groups := make(map[string]*group)
	var order []string
	for _, row := range joined.Rows {
		k := encodeDatums(row, gpos)
		g, ok := groups[k]
		if !ok {
			g = newGroup(row)
			groups[k] = g
			order = append(order, k)
		}
		for i := range g.aggr {
			g.aggr[i].add(row)
		}
	}
	if len(gpos) == 0 && len(groups) == 0 {
		// Scalar aggregation over zero rows still yields one row.
		groups[""] = newGroup(nil)
		order = append(order, "")
	}

	out := &NaiveResult{Cols: make(map[string]int, len(groupCols)+len(aggs))}
	for i, g := range groupCols {
		out.Cols[colRefKey(g)] = i
	}
	for i, a := range aggs {
		out.Cols[a.Key()] = len(groupCols) + i
	}
	for _, k := range order {
		g := groups[k]
		row := make([]catalog.Datum, 0, len(gpos)+len(aggs))
		row = append(row, g.key...)
		for i := range g.aggr {
			row = append(row, g.aggr[i].result())
		}
		keep := true
		for _, h := range q.Having {
			p, ok := out.Cols[h.Agg.Key()]
			if !ok {
				return nil, fmt.Errorf("oracle: HAVING references uncomputed aggregate %s", h.Agg.SQL())
			}
			match, err := h.Op.Eval(row[p], h.Val)
			if err != nil {
				return nil, fmt.Errorf("oracle: evaluating HAVING %s: %w", h.Agg.SQL(), err)
			}
			if !match {
				keep = false
				break
			}
		}
		if keep {
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// encodeDatums renders the selected positions of a row into a collision-free
// string key: type tag plus exact value, NULLs collated together.
func encodeDatums(row []catalog.Datum, pos []int) string {
	var b strings.Builder
	for _, p := range pos {
		encodeDatum(&b, row[p])
	}
	return b.String()
}

func encodeDatum(b *strings.Builder, d catalog.Datum) {
	if d.Null {
		b.WriteString("N;")
		return
	}
	switch d.T {
	case catalog.Float:
		// Exact bit pattern: the differential oracle must not confuse two
		// floats that merely print alike.
		b.WriteString("f")
		b.WriteString(strconv.FormatUint(math.Float64bits(d.F), 16))
	case catalog.String:
		b.WriteString("s")
		b.WriteString(strconv.Itoa(len(d.S)))
		b.WriteString(":")
		b.WriteString(d.S)
	default:
		b.WriteString("i")
		b.WriteString(strconv.FormatInt(d.I, 10))
	}
	b.WriteString(";")
}
