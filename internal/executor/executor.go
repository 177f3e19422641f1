// Package executor runs physical plans produced by the optimizer against the
// storage layer and charges deterministic work units in the same currency as
// the optimizer's cost model, so that "execution cost of the workload" (§8)
// is reproducible and hardware-independent. It also executes DML statements,
// driving the row-modification counters behind the statistics update policy.
package executor

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"autostats/internal/catalog"
	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/storage"
)

// Result is the outcome of executing one statement.
type Result struct {
	// Cols maps each output column's key to its position in Rows: a table
	// column's key is "table.column" (lower case), an aggregate's is
	// Aggregate.Key() (for example "count(*)").
	Cols map[string]int
	// Rows is the output row set (nil for DML). It is read-only: a row may
	// be a stored row of a table (see storage.TableData.Lend), and writing
	// it would change what every other reader of that row sees.
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

// resultSet is an intermediate materialized relation. Operators may reorder
// its rows but never write one: a base table's rows are the stored rows.
type resultSet struct {
	cols map[string]int
	rows [][]catalog.Datum
}

// bind resolves a column to its position in rs's rows. Every operator binds
// each column it reads once, before its first row.
func (rs *resultSet) bind(c query.ColumnRef) (int, error) {
	if p, ok := rs.cols[c.Key()]; ok {
		return p, nil
	}
	return 0, fmt.Errorf("executor: column %s not in intermediate result", c)
}

// bindAll binds each of refs.
func (rs *resultSet) bindAll(refs []query.ColumnRef) ([]int, error) {
	pos := make([]int, len(refs))
	for i, c := range refs {
		p, err := rs.bind(c)
		if err != nil {
			return nil, err
		}
		pos[i] = p
	}
	return pos, nil
}

// exec evaluates one plan node by routing it to its operator implementation.
// Every operator materializes its resultSet, so a node's actual cardinality
// is len(rs.rows) of what this returns. The inner base table of an
// IndexNLJoin is probed inline by execIndexNLJoin rather than executed
// through here, so it has no row count of its own.
func (ex *Executor) exec(n *optimizer.Node) (*resultSet, float64, error) {
	switch n.Op {
	case optimizer.OpTableScan, optimizer.OpIndexSeek:
		return ex.execTable(n)
	case optimizer.OpHashJoin, optimizer.OpMergeJoin, optimizer.OpNestedLoopJoin:
		return ex.execJoin(n)
	case optimizer.OpIndexNLJoin:
		return ex.execIndexNLJoin(n)
	case optimizer.OpHashAggregate, optimizer.OpStreamAggregate:
		return ex.execAgg(n)
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

// fetcher is the filtered fetch every read of a base table shares: the
// scan, the seek, the index-NL join's probe and DML's match. Its filters are
// bound to row positions once; each reader's visitor keeps the rows pass
// accepts and stops once err is set.
type fetcher struct {
	filters []query.Filter
	pos     []int // pos[i] is the row position of filters[i]'s column
	perRow  float64
	cost    float64
	err     error
}

// newFetcher binds filters to rs's columns and starts the charge at cost.
func newFetcher(rs *resultSet, filters []query.Filter, cost, perRow float64) (fetcher, error) {
	pos := make([]int, len(filters))
	for i, f := range filters {
		p, err := rs.bind(f.Col)
		if err != nil {
			return fetcher{}, err
		}
		pos[i] = p
	}
	return fetcher{filters: filters, pos: pos, perRow: perRow, cost: cost}, nil
}

// pass charges perRow for a fetched row and reports whether every filter
// accepts it. A filter that fails to evaluate sets err, and pass reports
// false.
func (f *fetcher) pass(r storage.Row) bool {
	f.cost += f.perRow
	for i, flt := range f.filters {
		ok, err := flt.Op.Eval(r[f.pos[i]], flt.Val)
		if err != nil {
			f.err = fmt.Errorf("executor: evaluating %s: %w", flt, err)
			return false
		}
		if !ok {
			return false
		}
	}
	return true
}

// execTable reads a base table: a scan charges every row, an index seek
// the seek and each row in the range its seek filters bound. It keeps the
// table's own rows, lent so that no later UPDATE writes them.
func (ex *Executor) execTable(n *optimizer.Node) (*resultSet, float64, error) {
	td, err := ex.db.Table(n.Table)
	if err != nil {
		return nil, 0, err
	}
	rs := tableResultSet(td)
	live := td.RowCount()
	rows := float64(live)
	cost, perRow := rows*optimizer.CostRowScan, 0.0
	if n.Op == optimizer.OpIndexSeek {
		cost, perRow = optimizer.SeekCost(rows), optimizer.CostRowFetch
	} else if len(n.Filters) == 0 {
		// An unfiltered scan keeps every live row: size the output once.
		rs.rows = make([][]catalog.Datum, 0, live)
	}
	f, err := newFetcher(rs, n.Filters, cost, perRow)
	if err != nil {
		return nil, 0, err
	}
	keep := func(id int, r storage.Row) bool {
		if f.pass(r) {
			td.Lend(id)
			rs.rows = append(rs.rows, r)
		}
		return f.err == nil
	}
	if n.Op == optimizer.OpTableScan {
		td.Scan(keep)
	} else if lo, hi, loInc, hiInc := seekBounds(n.SeekFilters); !td.Seek(n.IndexCol, lo, hi, loInc, hiInc, keep) {
		return nil, 0, fmt.Errorf("executor: no index on %s.%s", n.Table, n.IndexCol)
	}
	if f.err != nil {
		return nil, 0, f.err
	}
	return rs, f.cost, nil
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

// joinKeys resolves each predicate to a left and a right position, swapping
// sides if the optimizer oriented the predicate the other way.
func joinKeys(l, r *resultSet, preds []query.JoinPred) (lpos, rpos []int, err error) {
	pos := make([]int, 2*len(preds))
	lpos, rpos = pos[:len(preds)], pos[len(preds):]
	for i, p := range preds {
		lp, lok := l.cols[p.Left.Key()]
		rp, rok := r.cols[p.Right.Key()]
		if !lok || !rok {
			lp, lok = l.cols[p.Right.Key()]
			rp, rok = r.cols[p.Left.Key()]
		}
		if !lok || !rok {
			return nil, nil, fmt.Errorf("executor: cannot resolve join predicate %s", p)
		}
		lpos[i], rpos[i] = lp, rp
	}
	return lpos, rpos, nil
}

// hashKey appends to b the encoding of row's values at pos. It is the
// executor's one key equality: two rows of the same column types encode
// alike exactly when Datum.Compare finds every column equal, so a hash
// operator groups and matches as its sort-based twin does. Strings are
// length-prefixed, so no two composite keys run together; -0 is folded into
// +0 and every NaN into one; ints and dates are 8 bytes.
func hashKey(b []byte, row []catalog.Datum, pos []int) []byte {
	for _, p := range pos {
		d := row[p]
		switch {
		case d.Null:
			b = append(b, 0)
		case d.T == catalog.String:
			b = binary.AppendUvarint(append(b, 1), uint64(len(d.S)))
			b = append(b, d.S...)
		case d.T == catalog.Float:
			f := d.F
			switch {
			case f == 0:
				f = 0 // -0 is +0
			case math.IsNaN(f):
				f = math.NaN()
			}
			b = binary.LittleEndian.AppendUint64(append(b, 1), math.Float64bits(f))
		default:
			b = binary.LittleEndian.AppendUint64(append(b, 1), uint64(d.I))
		}
	}
	return b
}

func anyNull(row []catalog.Datum, pos []int) bool {
	for _, p := range pos {
		if row[p].Null {
			return true
		}
	}
	return false
}

// execJoin runs the joins that read both children whole: hash, merge and
// nested loop.
func (ex *Executor) execJoin(n *optimizer.Node) (*resultSet, float64, error) {
	l, lc, err := ex.exec(n.Children[0])
	if err != nil {
		return nil, 0, err
	}
	r, rc, err := ex.exec(n.Children[1])
	if err != nil {
		return nil, 0, err
	}
	lpos, rpos, err := joinKeys(l, r, n.Joins)
	if err != nil {
		return nil, 0, err
	}
	var out *resultSet
	var cost float64
	switch n.Op {
	case optimizer.OpHashJoin:
		out, cost = hashMatch(l, r, lpos, rpos, lc+rc+float64(len(r.rows))*optimizer.CostHashBuild, optimizer.CostHashProbe)
	case optimizer.OpMergeJoin:
		out, cost = mergeMatch(l, r, lpos, rpos, lc+rc+
			optimizer.SortCost(float64(len(l.rows)))+optimizer.SortCost(float64(len(r.rows)))+
			float64(len(l.rows))+float64(len(r.rows)))
	default:
		// The inner subtree is logically re-evaluated per outer row; we
		// materialize once and charge its cost per outer iteration,
		// matching the plan cost model. With equi-join predicates the
		// matching itself is done through a hash table: the COST charged
		// is still the nested-loop cost (that mispriced plans hurt is the
		// point of the experiments), but wall-clock time stays near-linear
		// instead of O(|L|·|R|).
		cost = lc + max(float64(len(l.rows)), 1)*rc
		if len(lpos) > 0 {
			out, cost = hashMatch(l, r, lpos, rpos, cost, 0)
			break
		}
		out = &resultSet{cols: mergeCols(l, r)}
		for _, lrow := range l.rows {
			for _, rrow := range r.rows {
				out.rows = append(out.rows, concatRows(lrow, rrow))
				cost += optimizer.CostRowOut
			}
		}
	}
	return out, cost, nil
}

// hashMatch joins l and r where lpos equals rpos: it builds a hash table on
// r's rows (the plan's convention) and probes it with each of l's, adding
// probe to cost per probe and CostRowOut per match. Matches come out in l's
// order, and for one l row in r's; a NULL key matches nothing.
func hashMatch(l, r *resultSet, lpos, rpos []int, cost, probe float64) (*resultSet, float64) {
	ht := make(map[string][][]catalog.Datum, len(r.rows))
	var key []byte
	for _, row := range r.rows {
		if !anyNull(row, rpos) {
			key = hashKey(key[:0], row, rpos)
			ht[string(key)] = append(ht[string(key)], row)
		}
	}
	out := &resultSet{cols: mergeCols(l, r)}
	for _, lrow := range l.rows {
		cost += probe
		if anyNull(lrow, lpos) {
			continue
		}
		key = hashKey(key[:0], lrow, lpos)
		for _, rrow := range ht[string(key)] {
			out.rows = append(out.rows, concatRows(lrow, rrow))
			cost += optimizer.CostRowOut
		}
	}
	return out, cost
}

// mergeMatch sorts l and r on their keys and joins them by merging, adding
// CostRowOut to cost per match.
func mergeMatch(l, r *resultSet, lpos, rpos []int, cost float64) (*resultSet, float64) {
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
	return out, cost
}

func sortRows(rows [][]catalog.Datum, pos []int) {
	sort.SliceStable(rows, func(a, b int) bool {
		return compareKeys(rows[a], pos, rows[b], pos) < 0
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
	lpos, rpos, err := joinKeys(l, r, n.Joins)
	if err != nil {
		return nil, 0, err
	}
	// The predicate on the indexed column drives the seek; the others are
	// re-checked on each row it fetches.
	ix := slices.Index(rpos, td.Schema.ColumnIndex(n.IndexCol))
	if ix < 0 {
		return nil, 0, fmt.Errorf("executor: index NL join predicate for column %s not found", n.IndexCol)
	}
	f, err := newFetcher(r, inner.Filters, lc, optimizer.CostRowFetch)
	if err != nil {
		return nil, 0, err
	}
	out := &resultSet{cols: mergeCols(l, r)}
	var lrow []catalog.Datum
	probe := func(_ int, rrow storage.Row) bool {
		if !f.pass(rrow) {
			return f.err == nil
		}
		for k := range lpos {
			if k != ix && (lrow[lpos[k]].Null || rrow[rpos[k]].Null || lrow[lpos[k]].Compare(rrow[rpos[k]]) != 0) {
				return true
			}
		}
		out.rows = append(out.rows, concatRows(lrow, rrow))
		f.cost += optimizer.CostRowOut
		return true
	}
	seek := optimizer.SeekCost(float64(td.RowCount()))
	for _, lrow = range l.rows {
		f.cost += seek
		key := lrow[lpos[ix]]
		if key.Null {
			continue
		}
		if !td.Seek(n.IndexCol, &key, &key, true, true, probe) {
			return nil, 0, fmt.Errorf("executor: no index on %s.%s", inner.Table, n.IndexCol)
		}
		if f.err != nil {
			return nil, 0, f.err
		}
	}
	return out, f.cost, nil
}

func (ex *Executor) execSort(n *optimizer.Node) (*resultSet, float64, error) {
	in, c, err := ex.exec(n.Children[0])
	if err != nil {
		return nil, 0, err
	}
	pos, err := in.bindAll(n.SortBy)
	if err != nil {
		return nil, 0, err
	}
	sortRows(in.rows, pos)
	return in, c + optimizer.SortCost(float64(len(in.rows))), nil
}
