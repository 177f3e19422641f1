package executor

import (
	"fmt"
	"slices"

	"autostats/internal/catalog"
	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/storage"
)

// RunStatement executes any statement. Queries are optimized with the given
// session first; DML goes straight to storage.
func (ex *Executor) RunStatement(sess *optimizer.Session, stmt query.Statement) (*Result, error) {
	switch s := stmt.(type) {
	case *query.Select:
		plan, err := sess.Optimize(s)
		if err != nil {
			return nil, err
		}
		return ex.Run(plan)
	case *query.Insert:
		return ex.runInsert(s)
	case *query.Delete:
		return ex.runDelete(s)
	case *query.Update:
		return ex.runUpdate(s)
	default:
		return nil, fmt.Errorf("executor: unsupported statement type %T", stmt)
	}
}

func (ex *Executor) runInsert(s *query.Insert) (*Result, error) {
	td, err := ex.db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	if err := td.Insert(storage.Row(s.Values)); err != nil {
		return nil, err
	}
	return &Result{Affected: 1, Cost: 1}, nil
}

// keyRange is one index range: the rows whose value of col lies between lo
// and hi, as seekBounds derives them.
type keyRange struct {
	col          string
	lo, hi       *catalog.Datum
	loInc, hiInc bool
}

// cheapestSeek applies the optimizer's access-path rule (bestAccessPath) to
// a DML statement's filters, with exact counts where SELECT has estimates:
// each indexed filter column's range, from its non-Ne filters, is counted
// by two binary searches, and the smallest is worth seeking when
// SeekCost(n) + CostRowFetch·count < n·CostRowScan for n live rows.
func cheapestSeek(v storage.View, filters []query.Filter) (keyRange, bool) {
	var cols []string
	for _, f := range filters {
		if f.Op != query.Ne && !slices.Contains(cols, f.Col.Column) {
			cols = append(cols, f.Col.Column)
		}
	}
	var best keyRange
	bestCount := -1
	for _, col := range cols {
		var on []query.Filter
		for _, f := range filters {
			if f.Op != query.Ne && f.Col.Column == col {
				on = append(on, f)
			}
		}
		r := keyRange{col: col}
		r.lo, r.hi, r.loInc, r.hiInc = seekBounds(on)
		if c, ok := v.Count(r.col, r.lo, r.hi, r.loInc, r.hiInc); ok && (bestCount < 0 || c < bestCount) {
			best, bestCount = r, c
		}
	}
	n := float64(v.Rows())
	return best, bestCount >= 0 && optimizer.SeekCost(n)+optimizer.CostRowFetch*float64(bestCount) < n*optimizer.CostRowScan
}

// matchingIDs returns, ascending, the IDs of the live rows of v that satisfy
// every filter. It seeks the range cheapestSeek picks, or else scans, and
// re-checks every filter on each row either path fetches. Sorting a seek's
// IDs makes the write that follows touch rows in the scan's order, so an
// UPDATE of an indexed column re-inserts its index entries in the same order
// whichever path found them. Only the path depends on the indexes: the
// statement's charge is a full scan either way (see runDelete).
func matchingIDs(v storage.View, filters []query.Filter, rs *resultSet) ([]int, error) {
	f, err := newFetcher(rs, filters, 0, 0)
	if err != nil {
		return nil, err
	}
	var ids []int
	keep := func(id int, r storage.Row) bool {
		if f.pass(r) {
			ids = append(ids, id)
		}
		return f.err == nil
	}
	if r, ok := cheapestSeek(v, filters); ok {
		v.Seek(r.col, r.lo, r.hi, r.loInc, r.hiInc, keep)
		slices.Sort(ids)
	} else {
		v.Scan(keep)
	}
	return ids, f.err
}

// runDelete and runUpdate match and write under one table write lock, so
// concurrent DML on a table serializes. Each charges a full scan of the live
// rows plus one unit per row written, whichever path matchingIDs took:
// that is what the §8 update-cost experiments measure.
func (ex *Executor) runDelete(s *query.Delete) (*Result, error) {
	td, err := ex.db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	rs := tableResultSet(td)
	var scan float64
	n, err := td.Delete(func(v storage.View) ([]int, error) {
		scan = float64(v.Rows()) * optimizer.CostRowScan
		return matchingIDs(v, s.Filters, rs)
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: n, Cost: scan + float64(n)}, nil
}

func (ex *Executor) runUpdate(s *query.Update) (*Result, error) {
	td, err := ex.db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	col := td.Schema.ColumnIndex(s.SetCol)
	if col < 0 {
		return nil, fmt.Errorf("executor: update %s: unknown column %s", s.Table, s.SetCol)
	}
	rs := tableResultSet(td)
	var scan float64
	n, err := td.Update(func(v storage.View) ([]int, error) {
		scan = float64(v.Rows()) * optimizer.CostRowScan
		return matchingIDs(v, s.Filters, rs)
	}, col, s.SetVal)
	if err != nil {
		return nil, err
	}
	return &Result{Affected: n, Cost: scan + float64(n)}, nil
}
