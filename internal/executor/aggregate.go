package executor

import (
	"fmt"

	"autostats/internal/catalog"
	"autostats/internal/query"
)

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

func newAggStates(rs *resultSet, aggs []query.Aggregate) ([]aggState, error) {
	out := make([]aggState, len(aggs))
	for i, a := range aggs {
		st := aggState{fn: a.Func, pos: -1}
		if a.Func != query.CountStar {
			p, err := rs.colPos(a.Col)
			if err != nil {
				return nil, fmt.Errorf("executor: aggregate %s: %w", a.SQL(), err)
			}
			st.pos = p
		}
		out[i] = st
	}
	return out, nil
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
func applyHaving(out *resultSet, having []query.HavingPred) (*resultSet, error) {
	if len(having) == 0 {
		return out, nil
	}
	kept := out.rows[:0]
	for _, row := range out.rows {
		ok := true
		for _, h := range having {
			p, exists := out.cols[h.Agg.Key()]
			if !exists {
				return nil, fmt.Errorf("executor: HAVING references uncomputed aggregate %s", h.Agg.SQL())
			}
			match, err := h.Op.Eval(row[p], h.Val)
			if err != nil {
				return nil, fmt.Errorf("executor: evaluating HAVING %s: %w", h.Agg.SQL(), err)
			}
			if !match {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, row)
		}
	}
	out.rows = kept
	return out, nil
}
