package optimizer

import (
	"sort"

	"autostats/internal/catalog"
	"autostats/internal/histogram"
	"autostats/internal/query"
	"autostats/internal/stats"
)

// minSelectivity floors estimated selectivities so cardinalities never
// collapse to exactly zero (which would make every plan cost-equivalent).
const minSelectivity = 1e-6

// estimator carries per-query estimation state: the call's what-if
// configuration, which statistics were consulted and which selectivity
// variables fell back to magic numbers.
type estimator struct {
	sess         *Session
	q            *query.Select
	hidden       map[stats.ID]bool // WhatIf.Hide as a set
	overrides    map[int]float64   // WhatIf.Overrides
	used         map[stats.ID]bool
	missing      map[int]bool
	joinSelCache map[int]float64
}

func newEstimator(sess *Session, q *query.Select, w WhatIf) *estimator {
	e := &estimator{
		sess:         sess,
		q:            q,
		overrides:    w.Overrides,
		used:         make(map[stats.ID]bool),
		missing:      make(map[int]bool),
		joinSelCache: make(map[int]float64),
	}
	if len(w.Hide) > 0 {
		e.hidden = make(map[stats.ID]bool, len(w.Hide))
		for _, id := range w.Hide {
			e.hidden[id] = true
		}
	}
	return e
}

// visibleStatFor returns the most precise (fewest columns) non-hidden
// statistic whose leading column is table.column, or nil.
func (e *estimator) visibleStatFor(table, column string) *stats.Statistic {
	for _, s := range e.sess.prov.StatsForColumn(table, column) {
		if !e.hidden[s.ID] {
			return s
		}
	}
	return nil
}

// visibleStatByID returns the statistic if it exists and is not hidden.
func (e *estimator) visibleStatByID(id stats.ID) *stats.Statistic {
	if e.hidden[id] {
		return nil
	}
	return e.sess.prov.Get(id)
}

// histogramOpSel estimates one comparison's selectivity from a histogram.
// It is the single place the operator-to-histogram mapping lives: filterSel
// uses it for costing and the plan cache's filterBucket uses it for key
// bucketing, so the two can never drift apart.
func histogramOpSel(h *histogram.Histogram, op query.CmpOp, v catalog.Datum) float64 {
	switch op {
	case query.Eq:
		return h.SelectivityEq(v)
	case query.Ne:
		return 1 - h.SelectivityEq(v) - h.NullFraction()
	case query.Lt:
		return h.SelectivityLess(v, false)
	case query.Le:
		return h.SelectivityLess(v, true)
	case query.Gt:
		return 1 - h.SelectivityLess(v, true) - h.NullFraction()
	case query.Ge:
		return 1 - h.SelectivityLess(v, false) - h.NullFraction()
	default:
		return 1
	}
}

// filterSel estimates the selectivity of one filter. When no statistic with
// a matching leading column is visible, the predicate's selectivity variable
// is recorded as missing and the override (if any) or the magic number is
// used.
func (e *estimator) filterSel(f query.Filter) float64 {
	if st := e.visibleStatFor(f.Col.Table, f.Col.Column); st != nil {
		e.used[st.ID] = true
		return clampSel(histogramOpSel(st.Data.Leading, f.Op, f.Val))
	}
	e.missing[f.VarID] = true
	if ov, ok := e.overrides[f.VarID]; ok {
		return clampSel(ov)
	}
	switch {
	case f.Op == query.Eq:
		return magicEq
	case f.Op == query.Ne:
		return magicNe
	default:
		return magicRange
	}
}

func clampSel(s float64) float64 {
	if s < minSelectivity {
		return minSelectivity
	}
	if s > 1 {
		return 1
	}
	return s
}

// tableSelectivity estimates the combined selectivity of a conjunction of
// filters on one table. Equality predicates covered by the longest usable
// leading prefix of a visible multi-column statistic are estimated together
// through the prefix density (capturing correlation); the rest multiply
// independently.
func (e *estimator) tableSelectivity(table string, filters []query.Filter) float64 {
	if len(filters) == 0 {
		return 1
	}
	// Equality filters eligible for multi-column coverage: no override on
	// their variable (overrides must win to keep MNSA's P_low/P_high exact).
	// Only when the variable would use the override does this pre-empt
	// coverage, i.e. when it has no single-column coverage either; keeping it
	// out of prefix coverage is the conservative choice.
	eligible := func(f query.Filter) bool {
		_, ov := e.overrides[f.VarID]
		return f.Op == query.Eq && !ov
	}
	nEq := 0
	for _, f := range filters {
		if eligible(f) {
			nEq++
		}
	}
	// A prefix density engages on >= 2 covered columns, so with fewer
	// eligible filters every filter multiplies independently below.
	var covered map[int]bool
	sel := 1.0
	if nEq >= 2 {
		eqCols := make(map[string]query.Filter, nEq)
		for _, f := range filters {
			if eligible(f) {
				eqCols[f.Col.Column] = f
			}
		}
		var bestStat *stats.Statistic
		bestLen := 1
		for _, st := range e.sess.prov.StatsOnTable(table) {
			if e.hidden[st.ID] || len(st.Columns) < 2 {
				continue
			}
			k := 0
			for _, c := range st.Columns {
				if _, ok := eqCols[c]; !ok {
					break
				}
				k++
			}
			if k > bestLen {
				bestLen, bestStat = k, st
			}
		}
		if bestStat != nil {
			e.used[bestStat.ID] = true
			sel *= clampSel(bestStat.Data.PrefixDensity(bestLen))
			covered = make(map[int]bool, bestLen)
			for _, c := range bestStat.Columns[:bestLen] {
				covered[eqCols[c].VarID] = true
			}
		}
	}
	for _, f := range filters {
		if covered[f.VarID] {
			continue
		}
		sel *= e.filterSel(f)
	}
	return clampSel(sel)
}

// distinctOf returns the distinct-value count of a column from any visible
// statistic with that leading column.
func (e *estimator) distinctOf(c query.ColumnRef) (float64, bool) {
	st := e.visibleStatFor(c.Table, c.Column)
	if st == nil {
		return 0, false
	}
	e.used[st.ID] = true
	d := st.Data.Leading.Distinct
	if d < 1 {
		d = 1
	}
	return float64(d), true
}

// joinSel estimates one equi-join predicate's selectivity from the two
// sides' leading histograms via the bucket-overlap dot product (accurate
// under skew); with either side uncovered the variable is missing and the
// override or join magic number applies. Results are memoized per variable:
// join enumeration consults the same predicate many times. The dot product
// itself is memoized on the session per pair of published histograms, since
// MNSA and Shrinking Set optimize the same joins over and over.
func (e *estimator) joinSel(j query.JoinPred) float64 {
	if sel, ok := e.joinSelCache[j.VarID]; ok {
		return sel
	}
	sel := e.joinSelUncached(j)
	e.joinSelCache[j.VarID] = sel
	return sel
}

func (e *estimator) joinSelUncached(j query.JoinPred) float64 {
	ls := e.visibleStatFor(j.Left.Table, j.Left.Column)
	rs := e.visibleStatFor(j.Right.Table, j.Right.Column)
	if ls != nil && rs != nil {
		e.used[ls.ID] = true
		e.used[rs.ID] = true
		return e.sess.joins.selectivity(ls, rs)
	}
	e.missing[j.VarID] = true
	if ov, ok := e.overrides[j.VarID]; ok {
		return clampSel(ov)
	}
	return magicJoin
}

// joinGroupSel estimates the combined selectivity of all join predicates
// between one pair of tables. Predicates multiply independently, each
// estimated by the histogram dot product; with two or more predicates the
// pair of multi-column statistics on the (sorted) join columns of each side
// (§7.1's per-table join-column statistic), when visible, caps the product
// from below via the containment bound 1/max(DV_left, DV_right) — the
// correlation correction for composite foreign keys, without ever overriding
// a histogram-based estimate with a cruder one.
func (e *estimator) joinGroupSel(preds []query.JoinPred) float64 {
	sel := 1.0
	for _, p := range preds {
		sel *= e.joinSel(p)
	}
	sel = clampSel(sel)
	if len(preds) >= 2 {
		lTable, rTable := preds[0].Left.Table, preds[0].Right.Table
		lCols := make([]string, len(preds))
		rCols := make([]string, len(preds))
		for i, p := range preds {
			lCols[i], rCols[i] = p.Left.Column, p.Right.Column
		}
		sort.Strings(lCols)
		sort.Strings(rCols)
		lStat := e.visibleStatByID(stats.MakeID(lTable, lCols))
		rStat := e.visibleStatByID(stats.MakeID(rTable, rCols))
		if lStat != nil && rStat != nil {
			e.used[lStat.ID] = true
			e.used[rStat.ID] = true
			lv := float64(lStat.Data.DistinctPrefix(len(lCols)))
			rv := float64(rStat.Data.DistinctPrefix(len(rCols)))
			m := lv
			if rv > m {
				m = rv
			}
			if m >= 1 && sel < 1/m {
				sel = clampSel(1 / m)
			}
		}
	}
	return sel
}

// groupCount estimates the number of groups a GROUP BY / DISTINCT produces
// from inputRows input rows. When every grouping column is covered by
// statistics the estimate is the (capped) product of per-table distinct
// counts; otherwise the clause's distinct-fraction variable is missing and
// the override or magic fraction applies (§4.1).
func (e *estimator) groupCount(inputRows float64) float64 {
	cols := e.q.GroupingColumns()
	if len(cols) == 0 {
		return inputRows
	}
	byTable := make(map[string][]string)
	var tables []string
	for _, c := range cols {
		if _, ok := byTable[c.Table]; !ok {
			tables = append(tables, c.Table)
		}
		byTable[c.Table] = append(byTable[c.Table], c.Column)
	}
	sort.Strings(tables)
	distinct := 1.0
	covered := true
	for _, t := range tables {
		tcols := byTable[t]
		sort.Strings(tcols)
		if len(tcols) >= 2 {
			if st := e.visibleStatByID(stats.MakeID(t, tcols)); st != nil {
				e.used[st.ID] = true
				dv := float64(st.Data.DistinctPrefix(len(tcols)))
				if dv < 1 {
					dv = 1
				}
				distinct *= dv
				continue
			}
		}
		// Fall back to independent per-column distinct counts, capped by
		// the table cardinality.
		prod := 1.0
		ok := true
		for _, c := range tcols {
			v, has := e.distinctOf(query.ColumnRef{Table: t, Column: c})
			if !has {
				ok = false
				break
			}
			prod *= v
		}
		if !ok {
			covered = false
			break
		}
		if td, err := e.sess.prov.Database().Table(t); err == nil {
			if cap := float64(td.RowCount()); prod > cap && cap >= 1 {
				prod = cap
			}
		}
		distinct *= prod
	}
	if covered {
		if distinct > inputRows {
			distinct = inputRows
		}
		if distinct < 1 {
			distinct = 1
		}
		return distinct
	}
	if e.q.GroupVarID >= 0 {
		e.missing[e.q.GroupVarID] = true
		if ov, ok := e.overrides[e.q.GroupVarID]; ok {
			g := clampSel(ov) * inputRows
			if g < 1 {
				g = 1
			}
			return g
		}
	}
	g := magicGroupFrac * inputRows
	if g < 1 {
		g = 1
	}
	return g
}

// missingVars returns the sorted selectivity-variable IDs that fell back to
// magic numbers during estimation.
func (e *estimator) missingVars() []int {
	out := make([]int, 0, len(e.missing))
	for v := range e.missing {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// usedStats returns the sorted IDs of statistics consulted.
func (e *estimator) usedStats() []stats.ID {
	out := make([]stats.ID, 0, len(e.used))
	for id := range e.used {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
