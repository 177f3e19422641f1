package executor

import (
	"fmt"

	"autostats/internal/catalog"
	"autostats/internal/optimizer"
	"autostats/internal/query"
)

// execAgg runs both aggregate operators through one grouping loop, with
// groups in the order of their first row. A hash aggregate finds a row's
// group by hashKey; a stream aggregate sorts its input first, so a group
// starts where the key changes and groups come out in key order. The two
// agree because hashKey equality is Datum.Compare equality. With no GROUP BY
// the aggregate is scalar: exactly one group, even over empty input. Each
// keeps its own charge.
func (ex *Executor) execAgg(n *optimizer.Node) (*resultSet, float64, error) {
	in, c, err := ex.exec(n.Children[0])
	if err != nil {
		return nil, 0, err
	}
	pos, err := in.bindAll(n.GroupBy)
	if err != nil {
		return nil, 0, err
	}
	aggPos, err := bindAggregates(in, n.Aggregates)
	if err != nil {
		return nil, 0, err
	}
	stream := n.Op == optimizer.OpStreamAggregate
	if stream {
		sortRows(in.rows, pos)
	}
	type group struct {
		first  int // the group's first row in in.rows
		states []aggState
	}
	var groups []group
	index := make(map[string]int)
	var key []byte
	for i, row := range in.rows {
		gi := len(groups) - 1
		if stream {
			// Sorted input: a group starts where the key changes.
			if i == 0 || compareKeys(row, pos, in.rows[i-1], pos) != 0 {
				gi = -1
			}
		} else {
			key = hashKey(key[:0], row, pos)
			var ok bool
			if gi, ok = index[string(key)]; !ok {
				gi = -1
				index[string(key)] = len(groups)
			}
		}
		if gi < 0 {
			gi = len(groups)
			groups = append(groups, group{first: i, states: newAggStates(n.Aggregates, aggPos)})
		}
		for j := range groups[gi].states {
			groups[gi].states[j].update(row)
		}
	}
	if len(pos) == 0 && len(groups) == 0 {
		groups = append(groups, group{states: newAggStates(n.Aggregates, aggPos)})
	}
	var cost float64
	switch {
	case len(pos) == 0:
		cost = c + optimizer.CostStreamRow*float64(len(in.rows)) + optimizer.CostRowOut
	case stream:
		cost = c + optimizer.StreamAggCost(float64(len(in.rows)), float64(len(groups)))
	default:
		cost = c + optimizer.HashAggCost(float64(len(in.rows)), float64(len(groups)))
	}
	out := &resultSet{cols: aggOutputCols(n.GroupBy, n.Aggregates), rows: make([][]catalog.Datum, len(groups))}
	for i, g := range groups {
		row := make([]catalog.Datum, len(pos), len(pos)+len(g.states))
		for k, p := range pos {
			row[k] = in.rows[g.first][p]
		}
		for j := range g.states {
			row = append(row, g.states[j].final())
		}
		out.rows[i] = row
	}
	if err := applyHaving(out, n.Having); err != nil {
		return nil, 0, err
	}
	return out, cost, nil
}

// aggState accumulates one aggregate expression over a group, with SQL NULL
// semantics: NULL inputs are skipped; empty groups yield NULL (except COUNT,
// which yields 0).
type aggState struct {
	fn    query.AggFunc
	pos   int // input column position; -1 for COUNT(*)
	count int64
	sum   float64
	isInt bool
	min   catalog.Datum
	max   catalog.Datum
	seen  bool
}

// bindAggregates resolves each aggregate's input column in rs, -1 for
// COUNT(*).
func bindAggregates(rs *resultSet, aggs []query.Aggregate) ([]int, error) {
	pos := make([]int, len(aggs))
	for i, a := range aggs {
		pos[i] = -1
		if a.Func != query.CountStar {
			p, err := rs.bind(a.Col)
			if err != nil {
				return nil, fmt.Errorf("executor: aggregate %s: %w", a.SQL(), err)
			}
			pos[i] = p
		}
	}
	return pos, nil
}

// newAggStates returns one fresh state per aggregate, reading the input
// column pos binds it to.
func newAggStates(aggs []query.Aggregate, pos []int) []aggState {
	out := make([]aggState, len(aggs))
	for i, a := range aggs {
		out[i] = aggState{fn: a.Func, pos: pos[i]}
	}
	return out
}

func (s *aggState) update(row []catalog.Datum) {
	if s.fn == query.CountStar {
		s.count++
		return
	}
	v := row[s.pos]
	if v.Null {
		return
	}
	s.count++
	switch s.fn {
	case query.Sum, query.Avg:
		if v.T == catalog.Float {
			s.sum += v.F
		} else {
			s.sum += float64(v.I)
			s.isInt = v.T == catalog.Int
		}
	case query.Min:
		if !s.seen || v.Compare(s.min) < 0 {
			s.min = v
		}
	case query.Max:
		if !s.seen || v.Compare(s.max) > 0 {
			s.max = v
		}
	}
	s.seen = true
}

func (s *aggState) final() catalog.Datum {
	switch s.fn {
	case query.CountStar, query.Count:
		return catalog.NewInt(s.count)
	case query.Sum:
		if s.count == 0 {
			return catalog.NewNull(catalog.Float)
		}
		if s.isInt {
			return catalog.NewInt(int64(s.sum))
		}
		return catalog.NewFloat(s.sum)
	case query.Avg:
		if s.count == 0 {
			return catalog.NewNull(catalog.Float)
		}
		return catalog.NewFloat(s.sum / float64(s.count))
	case query.Min:
		if !s.seen {
			return catalog.NewNull(catalog.Float)
		}
		return s.min
	case query.Max:
		if !s.seen {
			return catalog.NewNull(catalog.Float)
		}
		return s.max
	default:
		return catalog.NewNull(catalog.Float)
	}
}

// aggOutputCols builds the output column map of an aggregate node: group
// columns first, then aggregate expressions keyed by Aggregate.Key().
func aggOutputCols(groupBy []query.ColumnRef, aggs []query.Aggregate) map[string]int {
	cols := make(map[string]int, len(groupBy)+len(aggs))
	for i, g := range groupBy {
		cols[g.Key()] = i
	}
	for i, a := range aggs {
		cols[a.Key()] = len(groupBy) + i
	}
	return cols
}

// applyHaving filters aggregate output rows by the HAVING predicates, with
// SQL NULL semantics (a NULL aggregate never satisfies a predicate).
func applyHaving(out *resultSet, having []query.HavingPred) error {
	if len(having) == 0 {
		return nil
	}
	pos := make([]int, len(having))
	for i, h := range having {
		p, ok := out.cols[h.Agg.Key()]
		if !ok {
			return fmt.Errorf("executor: HAVING references uncomputed aggregate %s", h.Agg.SQL())
		}
		pos[i] = p
	}
	kept := out.rows[:0]
rows:
	for _, row := range out.rows {
		for i, h := range having {
			match, err := h.Op.Eval(row[pos[i]], h.Val)
			if err != nil {
				return fmt.Errorf("executor: evaluating HAVING %s: %w", h.Agg.SQL(), err)
			}
			if !match {
				continue rows
			}
		}
		kept = append(kept, row)
	}
	out.rows = kept
	return nil
}
