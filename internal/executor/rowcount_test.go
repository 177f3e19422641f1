package executor_test

import (
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/executor"
	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/storage"
)

// countWhere counts table rows passing all filters, as an independent oracle.
func countWhere(t *testing.T, db *storage.Database, table string, filters []query.Filter) int64 {
	t.Helper()
	td := mustTable(t, db, table)
	var n int64
	var ferr error
	td.Scan(func(_ int, r storage.Row) bool {
		for _, f := range filters {
			ok, err := f.Op.Eval(r[td.Schema.ColumnIndex(f.Col.Column)], f.Val)
			if err != nil {
				ferr = err
				return false
			}
			if !ok {
				return true
			}
		}
		n++
		return true
	})
	if ferr != nil {
		t.Fatal(ferr)
	}
	return n
}

// joinCount counts equi-join pairs orders.o_orderkey = lineitem.l_orderkey.
func joinCount(t *testing.T, db *storage.Database) int64 {
	t.Helper()
	orders := mustTable(t, db, "orders")
	lineitem := mustTable(t, db, "lineitem")
	op := orders.Schema.ColumnIndex("o_orderkey")
	lp := lineitem.Schema.ColumnIndex("l_orderkey")
	counts := map[int64]int64{}
	orders.Scan(func(_ int, r storage.Row) bool {
		if !r[op].Null {
			counts[r[op].I]++
		}
		return true
	})
	var n int64
	lineitem.Scan(func(_ int, r storage.Row) bool {
		if !r[lp].Null {
			n += counts[r[lp].I]
		}
		return true
	})
	return n
}

// groupCount counts distinct l_orderkey groups, and how many of them have
// more than minCount rows.
func groupCount(t *testing.T, db *storage.Database, minCount int64) (groups, passing int64) {
	t.Helper()
	lineitem := mustTable(t, db, "lineitem")
	lp := lineitem.Schema.ColumnIndex("l_orderkey")
	counts := map[string]int64{}
	lineitem.Scan(func(_ int, r storage.Row) bool {
		counts[r[lp].String()]++
		return true
	})
	for _, c := range counts {
		groups++
		if c > minCount {
			passing++
		}
	}
	return groups, passing
}

func scanNode(table string, filters ...query.Filter) *optimizer.Node {
	return &optimizer.Node{Op: optimizer.OpTableScan, Table: table, Filters: filters}
}

// TestActualRowAccountingPerOperator runs every physical operator as a plan
// root against an independent brute-force oracle: the rows it materializes
// must number exactly what the oracle counts. Every operator materializes its
// result, so this count is the actual cardinality of the node.
func TestActualRowAccountingPerOperator(t *testing.T) {
	e := newEnv(t, 0, 0.2)
	db := e.db
	ex := executor.New(db)
	qtyFilter := query.Filter{Col: col2("lineitem", "l_quantity"), Op: query.Gt, Val: catalog.NewFloat(25)}
	dateFilter := query.Filter{Col: col2("orders", "o_orderdate"), Op: query.Gt, Val: catalog.NewDate(9500)}
	joinPred := query.JoinPred{Left: col2("orders", "o_orderkey"), Right: col2("lineitem", "l_orderkey")}

	run := func(t *testing.T, root *optimizer.Node) int64 {
		t.Helper()
		res, err := ex.Run(&optimizer.Plan{Root: root})
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(res.Rows))
	}

	wantJoin := joinCount(t, db)

	t.Run("TableScan", func(t *testing.T) {
		got := run(t, scanNode("lineitem", qtyFilter))
		if want := countWhere(t, db, "lineitem", []query.Filter{qtyFilter}); got != want {
			t.Errorf("scan actual = %d, want %d", got, want)
		}
	})

	t.Run("IndexSeek", func(t *testing.T) {
		root := &optimizer.Node{
			Op: optimizer.OpIndexSeek, Table: "orders", IndexCol: "o_orderdate",
			Filters: []query.Filter{dateFilter}, SeekFilters: []query.Filter{dateFilter},
		}
		got := run(t, root)
		if want := countWhere(t, db, "orders", []query.Filter{dateFilter}); got != want {
			t.Errorf("seek actual = %d, want %d", got, want)
		}
	})

	for _, jt := range []struct {
		name string
		op   optimizer.Op
	}{
		{"HashJoin", optimizer.OpHashJoin},
		{"MergeJoin", optimizer.OpMergeJoin},
		{"NLJoin", optimizer.OpNestedLoopJoin},
	} {
		t.Run(jt.name, func(t *testing.T) {
			root := &optimizer.Node{
				Op:       jt.op,
				Children: []*optimizer.Node{scanNode("orders"), scanNode("lineitem")},
				Joins:    []query.JoinPred{joinPred},
			}
			if got := run(t, root); got != wantJoin {
				t.Errorf("%s actual = %d, want %d", jt.name, got, wantJoin)
			}
		})
	}

	t.Run("IndexNLJoin", func(t *testing.T) {
		root := &optimizer.Node{
			Op:       optimizer.OpIndexNLJoin,
			Children: []*optimizer.Node{scanNode("orders"), scanNode("lineitem")},
			IndexCol: "l_orderkey",
			Joins:    []query.JoinPred{joinPred},
		}
		if got := run(t, root); got != wantJoin {
			t.Errorf("index NL join actual = %d, want %d", got, wantJoin)
		}
	})

	groups, passing := groupCount(t, db, 3)

	t.Run("HashAgg", func(t *testing.T) {
		root := &optimizer.Node{
			Op:         optimizer.OpHashAggregate,
			Children:   []*optimizer.Node{scanNode("lineitem")},
			GroupBy:    []query.ColumnRef{col2("lineitem", "l_orderkey")},
			Aggregates: []query.Aggregate{{Func: query.CountStar}},
		}
		if got := run(t, root); got != groups {
			t.Errorf("hash agg actual = %d, want %d groups", got, groups)
		}
	})

	t.Run("StreamAgg", func(t *testing.T) {
		root := &optimizer.Node{
			Op:         optimizer.OpStreamAggregate,
			Children:   []*optimizer.Node{scanNode("lineitem")},
			GroupBy:    []query.ColumnRef{col2("lineitem", "l_orderkey")},
			Aggregates: []query.Aggregate{{Func: query.Sum, Col: col2("lineitem", "l_quantity")}},
		}
		if got := run(t, root); got != groups {
			t.Errorf("stream agg actual = %d, want %d groups", got, groups)
		}
	})

	t.Run("Having", func(t *testing.T) {
		root := &optimizer.Node{
			Op:         optimizer.OpHashAggregate,
			Children:   []*optimizer.Node{scanNode("lineitem")},
			GroupBy:    []query.ColumnRef{col2("lineitem", "l_orderkey")},
			Aggregates: []query.Aggregate{{Func: query.CountStar}},
			Having:     []query.HavingPred{{Agg: query.Aggregate{Func: query.CountStar}, Op: query.Gt, Val: catalog.NewInt(3)}},
		}
		if got := run(t, root); got != passing {
			t.Errorf("post-HAVING actual = %d, want %d", got, passing)
		}
	})

	t.Run("Sort", func(t *testing.T) {
		root := &optimizer.Node{
			Op:       optimizer.OpSort,
			Children: []*optimizer.Node{scanNode("lineitem", qtyFilter)},
			SortBy:   []query.ColumnRef{col2("lineitem", "l_quantity")},
		}
		if got, want := run(t, root), countWhere(t, db, "lineitem", []query.Filter{qtyFilter}); got != want {
			t.Errorf("sort actual = %d, want %d", got, want)
		}
	})
}

func col2(t, c string) query.ColumnRef { return query.ColumnRef{Table: t, Column: c} }
