// Package executor runs physical plans produced by the optimizer against the
// storage layer and charges deterministic work units in the same currency as
// the optimizer's cost model, so that "execution cost of the workload" (§8)
// is reproducible and hardware-independent. It also executes DML statements,
// driving the row-modification counters behind the statistics update policy.
package executor

import (
	"fmt"
	"sort"
	"strings"

	"autostats/internal/catalog"
	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/storage"
)

// Result is the outcome of executing one statement.
type Result struct {
	// Cols maps "table.column" (lower case) to the output column position.
	Cols map[string]int
	// Rows is the output row set (nil for DML).
	Rows [][]catalog.Datum
	// Cost is the total work units charged.
	Cost float64
	// Affected counts rows inserted/updated/deleted by DML.
	Affected int
}

// Executor evaluates plans and DML against one database.
type Executor struct {
	db *storage.Database
}

// New creates an executor over db.
func New(db *storage.Database) *Executor { return &Executor{db: db} }

// Run executes a query plan.
func (ex *Executor) Run(p *optimizer.Plan) (*Result, error) {
	rs, cost, err := ex.exec(p.Root)
	if err != nil {
		return nil, err
	}
	return &Result{Cols: rs.cols, Rows: rs.rows, Cost: cost}, nil
}

// resultSet is an intermediate materialized relation.
type resultSet struct {
	cols map[string]int
	rows [][]catalog.Datum
}

func (rs *resultSet) colPos(c query.ColumnRef) (int, error) {
	if p, ok := rs.cols[c.Key()]; ok {
		return p, nil
	}
	return 0, fmt.Errorf("executor: column %s not in intermediate result", c)
}

// exec evaluates one plan node by routing it to its operator implementation.
// Every operator materializes its resultSet, so a node's actual cardinality
// is len(rs.rows) of what this returns. The inner base table of an
// IndexNLJoin is probed inline by execIndexNLJoin rather than executed
// through here, so it has no row count of its own.
func (ex *Executor) exec(n *optimizer.Node) (*resultSet, float64, error) {
	switch n.Op {
	case optimizer.OpTableScan:
		return ex.execScan(n)
	case optimizer.OpIndexSeek:
		return ex.execSeek(n)
	case optimizer.OpHashJoin:
		return ex.execHashJoin(n)
	case optimizer.OpMergeJoin:
		return ex.execMergeJoin(n)
	case optimizer.OpNestedLoopJoin:
		return ex.execNLJoin(n)
	case optimizer.OpIndexNLJoin:
		return ex.execIndexNLJoin(n)
	case optimizer.OpHashAggregate:
		return ex.execHashAgg(n)
	case optimizer.OpStreamAggregate:
		return ex.execStreamAgg(n)
	case optimizer.OpSort:
		return ex.execSort(n)
	default:
		return nil, 0, fmt.Errorf("executor: unsupported operator %s", n.Op)
	}
}

// tableResultSet maps every column of the table into the output.
func tableResultSet(td *storage.TableData) *resultSet {
	cols := make(map[string]int, len(td.Schema.Columns))
	for i, c := range td.Schema.Columns {
		cols[query.ColumnRef{Table: td.Schema.Name, Column: c.Name}.Key()] = i
	}
	return &resultSet{cols: cols}
}

func evalFilters(rs *resultSet, filters []query.Filter, row []catalog.Datum) (bool, error) {
	for _, f := range filters {
		p, err := rs.colPos(f.Col)
		if err != nil {
			return false, err
		}
		ok, err := f.Op.Eval(row[p], f.Val)
		if err != nil {
			return false, fmt.Errorf("executor: evaluating %s: %w", f, err)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

func (ex *Executor) execScan(n *optimizer.Node) (*resultSet, float64, error) {
	td, err := ex.db.Table(n.Table)
	if err != nil {
		return nil, 0, err
	}
	rs := tableResultSet(td)
	cost := float64(td.RowCount()) * optimizer.CostRowScan
	var ferr error
	td.Scan(func(_ int, r storage.Row) bool {
		ok, err := evalFilters(rs, n.Filters, r)
		if err != nil {
			ferr = err
			return false
		}
		if ok {
			rs.rows = append(rs.rows, append([]catalog.Datum(nil), r...))
		}
		return true
	})
	return rs, cost, ferr
}

// seekBounds derives the index range from the seek filters.
func seekBounds(filters []query.Filter) (lo, hi *catalog.Datum, loInc, hiInc bool) {
	loInc, hiInc = true, true
	for _, f := range filters {
		v := f.Val
		switch f.Op {
		case query.Eq:
			// Reset inclusivity along with the bounds: an earlier exclusive
			// bound (e.g. "> 1 AND = 2") must not turn the point range
			// [2, 2] into the empty range (2, 2]. Contradictory residual
			// filters are re-checked per fetched row, so an over-wide point
			// range is safe; an empty one silently loses rows.
			lo, hi = &v, &v
			loInc, hiInc = true, true
		case query.Lt:
			if hi == nil || v.Compare(*hi) <= 0 {
				hi, hiInc = &v, false
			}
		case query.Le:
			if hi == nil || v.Compare(*hi) < 0 {
				hi, hiInc = &v, true
			}
		case query.Gt:
			if lo == nil || v.Compare(*lo) >= 0 {
				lo, loInc = &v, false
			}
		case query.Ge:
			if lo == nil || v.Compare(*lo) > 0 {
				lo, loInc = &v, true
			}
		}
	}
	return lo, hi, loInc, hiInc
}

func (ex *Executor) execSeek(n *optimizer.Node) (*resultSet, float64, error) {
	td, err := ex.db.Table(n.Table)
	if err != nil {
		return nil, 0, err
	}
	lo, hi, loInc, hiInc := seekBounds(n.SeekFilters)
	rs := tableResultSet(td)
	cost := optimizer.SeekCost(float64(td.RowCount()))
	var ferr error
	indexed := td.Seek(n.IndexCol, lo, hi, loInc, hiInc, func(_ int, r storage.Row) bool {
		cost += optimizer.CostRowFetch
		ok, err := evalFilters(rs, n.Filters, r)
		if err != nil {
			ferr = err
			return false
		}
		if ok {
			rs.rows = append(rs.rows, append([]catalog.Datum(nil), r...))
		}
		return true
	})
	if !indexed {
		return nil, 0, fmt.Errorf("executor: no index on %s.%s", n.Table, n.IndexCol)
	}
	if ferr != nil {
		return nil, 0, ferr
	}
	return rs, cost, nil
}

// mergeCols concatenates two column maps, with right offsets shifted.
func mergeCols(l, r *resultSet) map[string]int {
	cols := make(map[string]int, len(l.cols)+len(r.cols))
	for k, v := range l.cols {
		cols[k] = v
	}
	lw := rowWidth(l)
	for k, v := range r.cols {
		cols[k] = lw + v
	}
	return cols
}

func rowWidth(rs *resultSet) int {
	w := 0
	for _, v := range rs.cols {
		if v+1 > w {
			w = v + 1
		}
	}
	return w
}

func concatRows(l, r []catalog.Datum) []catalog.Datum {
	out := make([]catalog.Datum, 0, len(l)+len(r))
	out = append(out, l...)
	return append(out, r...)
}

// joinKeys resolves each predicate to (leftPos, rightPos), swapping sides if
// the optimizer oriented the predicate the other way.
func joinKeys(l, r *resultSet, preds []query.JoinPred) ([][2]int, error) {
	keys := make([][2]int, len(preds))
	for i, p := range preds {
		lp, lerr := l.colPos(p.Left)
		rp, rerr := r.colPos(p.Right)
		if lerr == nil && rerr == nil {
			keys[i] = [2]int{lp, rp}
			continue
		}
		lp, lerr = l.colPos(p.Right)
		rp, rerr = r.colPos(p.Left)
		if lerr == nil && rerr == nil {
			keys[i] = [2]int{lp, rp}
			continue
		}
		return nil, fmt.Errorf("executor: cannot resolve join predicate %s", p)
	}
	return keys, nil
}

func hashKey(row []catalog.Datum, pos []int) string {
	var b strings.Builder
	for _, p := range pos {
		d := row[p]
		if d.Null {
			b.WriteString("\x00N")
			continue
		}
		switch d.T {
		case catalog.String:
			fmt.Fprintf(&b, "\x00s%s", d.S)
		case catalog.Float:
			fmt.Fprintf(&b, "\x00f%v", d.F)
		default:
			fmt.Fprintf(&b, "\x00i%d", d.I)
		}
	}
	return b.String()
}

func (ex *Executor) execHashJoin(n *optimizer.Node) (*resultSet, float64, error) {
	l, lc, err := ex.exec(n.Children[0])
	if err != nil {
		return nil, 0, err
	}
	r, rc, err := ex.exec(n.Children[1])
	if err != nil {
		return nil, 0, err
	}
	keys, err := joinKeys(l, r, n.Joins)
	if err != nil {
		return nil, 0, err
	}
	lpos := make([]int, len(keys))
	rpos := make([]int, len(keys))
	for i, k := range keys {
		lpos[i], rpos[i] = k[0], k[1]
	}
	cost := lc + rc
	// Build on the right child (matching the plan's convention).
	ht := make(map[string][][]catalog.Datum, len(r.rows))
	for _, row := range r.rows {
		if anyNull(row, rpos) {
			continue
		}
		k := hashKey(row, rpos)
		ht[k] = append(ht[k], row)
	}
	cost += float64(len(r.rows)) * optimizer.CostHashBuild
	out := &resultSet{cols: mergeCols(l, r)}
	for _, lrow := range l.rows {
		cost += optimizer.CostHashProbe
		if anyNull(lrow, lpos) {
			continue
		}
		for _, rrow := range ht[hashKey(lrow, lpos)] {
			out.rows = append(out.rows, concatRows(lrow, rrow))
			cost += optimizer.CostRowOut
		}
	}
	return out, cost, nil
}

func anyNull(row []catalog.Datum, pos []int) bool {
	for _, p := range pos {
		if row[p].Null {
			return true
		}
	}
	return false
}

func (ex *Executor) execMergeJoin(n *optimizer.Node) (*resultSet, float64, error) {
	l, lc, err := ex.exec(n.Children[0])
	if err != nil {
		return nil, 0, err
	}
	r, rc, err := ex.exec(n.Children[1])
	if err != nil {
		return nil, 0, err
	}
	keys, err := joinKeys(l, r, n.Joins)
	if err != nil {
		return nil, 0, err
	}
	lpos := make([]int, len(keys))
	rpos := make([]int, len(keys))
	for i, k := range keys {
		lpos[i], rpos[i] = k[0], k[1]
	}
	cost := lc + rc +
		optimizer.SortCost(float64(len(l.rows))) + optimizer.SortCost(float64(len(r.rows))) +
		float64(len(l.rows)) + float64(len(r.rows))
	sortRows(l.rows, lpos)
	sortRows(r.rows, rpos)
	out := &resultSet{cols: mergeCols(l, r)}
	i, j := 0, 0
	for i < len(l.rows) && j < len(r.rows) {
		if anyNull(l.rows[i], lpos) {
			i++
			continue
		}
		if anyNull(r.rows[j], rpos) {
			j++
			continue
		}
		c := compareKeys(l.rows[i], lpos, r.rows[j], rpos)
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// Emit the cross product of the two equal-key groups.
			i2 := i
			for i2 < len(l.rows) && compareKeys(l.rows[i2], lpos, r.rows[j], rpos) == 0 {
				i2++
			}
			j2 := j
			for j2 < len(r.rows) && compareKeys(l.rows[i], lpos, r.rows[j2], rpos) == 0 {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					out.rows = append(out.rows, concatRows(l.rows[a], r.rows[b]))
					cost += optimizer.CostRowOut
				}
			}
			i, j = i2, j2
		}
	}
	return out, cost, nil
}

func sortRows(rows [][]catalog.Datum, pos []int) {
	sort.SliceStable(rows, func(a, b int) bool {
		for _, p := range pos {
			c := rows[a][p].Compare(rows[b][p])
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
}

func compareKeys(lrow []catalog.Datum, lpos []int, rrow []catalog.Datum, rpos []int) int {
	for i := range lpos {
		c := lrow[lpos[i]].Compare(rrow[rpos[i]])
		if c != 0 {
			return c
		}
	}
	return 0
}

func (ex *Executor) execNLJoin(n *optimizer.Node) (*resultSet, float64, error) {
	l, lc, err := ex.exec(n.Children[0])
	if err != nil {
		return nil, 0, err
	}
	r, rc, err := ex.exec(n.Children[1])
	if err != nil {
		return nil, 0, err
	}
	keys, err := joinKeys(l, r, n.Joins)
	if err != nil {
		return nil, 0, err
	}
	// The inner subtree is logically re-evaluated per outer row; we
	// materialize once and charge its cost per outer iteration, matching
	// the plan cost model. With equi-join predicates the matching itself is
	// done through a hash table: the COST charged is still the nested-loop
	// cost (that mispriced plans hurt is the point of the experiments), but
	// wall-clock time stays near-linear instead of O(|L|·|R|).
	outer := float64(len(l.rows))
	if outer < 1 {
		outer = 1
	}
	cost := lc + outer*rc
	out := &resultSet{cols: mergeCols(l, r)}
	if len(keys) > 0 {
		lpos := make([]int, len(keys))
		rpos := make([]int, len(keys))
		for i, k := range keys {
			lpos[i], rpos[i] = k[0], k[1]
		}
		ht := make(map[string][][]catalog.Datum, len(r.rows))
		for _, rrow := range r.rows {
			if !anyNull(rrow, rpos) {
				k := hashKey(rrow, rpos)
				ht[k] = append(ht[k], rrow)
			}
		}
		for _, lrow := range l.rows {
			if anyNull(lrow, lpos) {
				continue
			}
			for _, rrow := range ht[hashKey(lrow, lpos)] {
				out.rows = append(out.rows, concatRows(lrow, rrow))
				cost += optimizer.CostRowOut
			}
		}
		return out, cost, nil
	}
	for _, lrow := range l.rows {
		for _, rrow := range r.rows {
			out.rows = append(out.rows, concatRows(lrow, rrow))
			cost += optimizer.CostRowOut
		}
	}
	return out, cost, nil
}

func (ex *Executor) execIndexNLJoin(n *optimizer.Node) (*resultSet, float64, error) {
	l, lc, err := ex.exec(n.Children[0])
	if err != nil {
		return nil, 0, err
	}
	inner := n.Children[1]
	if inner.Op != optimizer.OpTableScan && inner.Op != optimizer.OpIndexSeek {
		return nil, 0, fmt.Errorf("executor: index NL join inner must be a base table, got %s", inner.Op)
	}
	td, err := ex.db.Table(inner.Table)
	if err != nil {
		return nil, 0, err
	}
	r := tableResultSet(td)
	keys, err := joinKeys(l, r, n.Joins)
	if err != nil {
		return nil, 0, err
	}
	// Find which predicate drives the index.
	ixPred := -1
	for i, p := range n.Joins {
		side := p.Right
		if side.Table != inner.Table {
			side = p.Left
		}
		if side.Column == n.IndexCol {
			ixPred = i
			break
		}
	}
	if ixPred < 0 {
		return nil, 0, fmt.Errorf("executor: index NL join predicate for column %s not found", n.IndexCol)
	}
	cost := lc
	seek := optimizer.SeekCost(float64(td.RowCount()))
	out := &resultSet{cols: mergeCols(l, r)}
	// probe visits the inner rows one outer row's seek fetches.
	var lrow []catalog.Datum
	var ferr error
	probe := func(_ int, rrow storage.Row) bool {
		cost += optimizer.CostRowFetch
		pass, err := evalFilters(r, inner.Filters, rrow)
		if err != nil {
			ferr = err
			return false
		}
		if !pass {
			return true
		}
		for ki, k := range keys {
			if ki == ixPred {
				continue
			}
			if lrow[k[0]].Null || rrow[k[1]].Null || lrow[k[0]].Compare(rrow[k[1]]) != 0 {
				return true
			}
		}
		out.rows = append(out.rows, concatRows(lrow, rrow))
		cost += optimizer.CostRowOut
		return true
	}
	for _, lrow = range l.rows {
		cost += seek
		key := lrow[keys[ixPred][0]]
		if key.Null {
			continue
		}
		if !td.Seek(n.IndexCol, &key, &key, true, true, probe) {
			return nil, 0, fmt.Errorf("executor: no index on %s.%s", inner.Table, n.IndexCol)
		}
		if ferr != nil {
			return nil, 0, ferr
		}
	}
	return out, cost, nil
}

func (ex *Executor) execHashAgg(n *optimizer.Node) (*resultSet, float64, error) {
	in, c, err := ex.exec(n.Children[0])
	if err != nil {
		return nil, 0, err
	}
	// Scalar aggregate: no grouping columns, one output row.
	if len(n.GroupBy) == 0 {
		states, err := newAggStates(in, n.Aggregates)
		if err != nil {
			return nil, 0, err
		}
		for _, row := range in.rows {
			for i := range states {
				states[i].update(row)
			}
		}
		tuple := make([]catalog.Datum, len(states))
		for i := range states {
			tuple[i] = states[i].final()
		}
		out := &resultSet{cols: aggOutputCols(nil, n.Aggregates), rows: [][]catalog.Datum{tuple}}
		out, err = applyHaving(out, n.Having)
		if err != nil {
			return nil, 0, err
		}
		return out, c + optimizer.CostStreamRow*float64(len(in.rows)) + optimizer.CostRowOut, nil
	}

	pos := make([]int, len(n.GroupBy))
	for i, g := range n.GroupBy {
		p, err := in.colPos(g)
		if err != nil {
			return nil, 0, err
		}
		pos[i] = p
	}
	type group struct {
		tuple  []catalog.Datum
		states []aggState
	}
	groups := make(map[string]*group)
	var order []string
	for _, row := range in.rows {
		k := hashKey(row, pos)
		g, ok := groups[k]
		if !ok {
			tuple := make([]catalog.Datum, len(pos))
			for i, p := range pos {
				tuple[i] = row[p]
			}
			states, err := newAggStates(in, n.Aggregates)
			if err != nil {
				return nil, 0, err
			}
			g = &group{tuple: tuple, states: states}
			groups[k] = g
			order = append(order, k)
		}
		for i := range g.states {
			g.states[i].update(row)
		}
	}
	cost := c + optimizer.HashAggCost(float64(len(in.rows)), float64(len(groups)))
	out := &resultSet{cols: aggOutputCols(n.GroupBy, n.Aggregates)}
	for _, k := range order {
		g := groups[k]
		row := g.tuple
		for i := range g.states {
			row = append(row, g.states[i].final())
		}
		out.rows = append(out.rows, row)
	}
	out, err = applyHaving(out, n.Having)
	if err != nil {
		return nil, 0, err
	}
	return out, cost, nil
}

func (ex *Executor) execStreamAgg(n *optimizer.Node) (*resultSet, float64, error) {
	in, c, err := ex.exec(n.Children[0])
	if err != nil {
		return nil, 0, err
	}
	pos := make([]int, len(n.GroupBy))
	for i, g := range n.GroupBy {
		p, err := in.colPos(g)
		if err != nil {
			return nil, 0, err
		}
		pos[i] = p
	}
	sortRows(in.rows, pos)
	out := &resultSet{cols: aggOutputCols(n.GroupBy, n.Aggregates)}
	var states []aggState
	flush := func(boundary []catalog.Datum) {
		row := make([]catalog.Datum, len(pos), len(pos)+len(states))
		copy(row, boundary)
		for i := range states {
			row = append(row, states[i].final())
		}
		out.rows = append(out.rows, row)
	}
	var curKey []catalog.Datum
	for i, row := range in.rows {
		newGroup := i == 0 || compareKeys(row, pos, in.rows[i-1], pos) != 0
		if newGroup {
			if i > 0 {
				flush(curKey)
			}
			curKey = make([]catalog.Datum, len(pos))
			for k, p := range pos {
				curKey[k] = row[p]
			}
			var err error
			states, err = newAggStates(in, n.Aggregates)
			if err != nil {
				return nil, 0, err
			}
		}
		for k := range states {
			states[k].update(row)
		}
	}
	if len(in.rows) > 0 {
		flush(curKey)
	}
	cost := c + optimizer.StreamAggCost(float64(len(in.rows)), float64(len(out.rows)))
	out, err = applyHaving(out, n.Having)
	if err != nil {
		return nil, 0, err
	}
	return out, cost, nil
}

func (ex *Executor) execSort(n *optimizer.Node) (*resultSet, float64, error) {
	in, c, err := ex.exec(n.Children[0])
	if err != nil {
		return nil, 0, err
	}
	pos := make([]int, len(n.SortBy))
	for i, s := range n.SortBy {
		p, err := in.colPos(s)
		if err != nil {
			return nil, 0, err
		}
		pos[i] = p
	}
	sortRows(in.rows, pos)
	return in, c + optimizer.SortCost(float64(len(in.rows))), nil
}
