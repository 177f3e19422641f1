package executor_test

import (
	"fmt"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/sqlparser"
)

// The DML and seek benchmarks run on the scale-1 database with uniform keys
// (orders 1 500 rows keyed 0…1 499, lineitem 6 000 rows, about four per
// order) and cycle over statements parsed off the clock.

// benchOrders is the number of orders, and of order keys, at scale 1.
const benchOrders = 1500

func parseAll(b *testing.B, e *env, sql func(int) string, n int) []query.Statement {
	b.Helper()
	out := make([]query.Statement, n)
	for i := range out {
		stmt, err := sqlparser.Parse(e.db.Schema, sql(i))
		if err != nil {
			b.Fatal(err)
		}
		out[i] = stmt
	}
	return out
}

func runAll(b *testing.B, e *env, stmts []query.Statement) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ex.RunStatement(e.sess, stmts[i%len(stmts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeleteByIndexedKey guards DELETE's seek path: one order's
// lineitems found through the l_orderkey index and tombstoned, the class of
// statement that set churn_onfly's tail while DML scanned. Each iteration
// deletes a key not yet deleted; when the keys run out, the database is
// regenerated off the clock.
func BenchmarkDeleteByIndexedKey(b *testing.B) {
	e := newEnv(b, 0, 1)
	stmts := parseAll(b, e, func(k int) string {
		return fmt.Sprintf("DELETE FROM lineitem WHERE l_orderkey = %d", k)
	}, benchOrders)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(stmts) == 0 {
			b.StopTimer()
			e = newEnv(b, 0, 1)
			b.StartTimer()
		}
		if _, err := e.ex.RunStatement(e.sess, stmts[i%len(stmts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdatePrimaryKeyRange guards UPDATE's seek path on a range: 5 %
// of orders (75 rows) by o_orderkey, as churn_onfly's orders updates.
func BenchmarkUpdatePrimaryKeyRange(b *testing.B) {
	e := newEnv(b, 0, 1)
	stmts := parseAll(b, e, func(i int) string {
		return fmt.Sprintf("UPDATE orders SET o_totalprice = 1000 WHERE o_orderkey >= %d AND o_orderkey < %d", 75*i, 75*i+75)
	}, benchOrders/75)
	runAll(b, e, stmts)
}

// BenchmarkUpdateNoIndex guards the scan path, which DML still takes when
// no index narrows the rows: no index covers o_totalprice, so each update
// reads all of orders to set a few.
func BenchmarkUpdateNoIndex(b *testing.B) {
	e := newEnv(b, 0, 1)
	stmts := parseAll(b, e, func(i int) string {
		return fmt.Sprintf("UPDATE orders SET o_shippriority = 1 WHERE o_totalprice >= %d AND o_totalprice < %d", 100000*i, 100000*i+5000)
	}, 4)
	runAll(b, e, stmts)
}

// BenchmarkIndexSeekSelect guards SELECT's seek operator, which reads each
// seek's rows under one read lock: one order's lineitems by l_orderkey,
// through a hand-built IndexSeek plan so that the optimizer stays out of
// the measurement.
func BenchmarkIndexSeekSelect(b *testing.B) {
	e := newEnv(b, 0, 1)
	plans := make([]*optimizer.Plan, 64)
	for i := range plans {
		f := query.Filter{Col: query.ColumnRef{Table: "lineitem", Column: "l_orderkey"}, Op: query.Eq, Val: catalog.NewInt(int64(i * 23))}
		plans[i] = &optimizer.Plan{Root: &optimizer.Node{
			Op: optimizer.OpIndexSeek, Table: "lineitem", IndexCol: "l_orderkey",
			Filters: []query.Filter{f}, SeekFilters: []query.Filter{f},
		}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ex.Run(plans[i%len(plans)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOperator runs each physical operator as the root of a hand-built
// plan on the scale-1 database, so that a change to one operator's time or
// allocations is attributable to it. Every plan's children are base-table
// scans, whose cost is in each figure; FilteredScan is that cost alone. Each
// reports the work units its plan charges (units/op) and the time per unit
// (ns/unit), so that how far units track time shows per operator.
func BenchmarkOperator(b *testing.B) {
	e := newEnv(b, 0, 1)
	qty := query.Filter{Col: col2("lineitem", "l_quantity"), Op: query.Gt, Val: catalog.NewFloat(25)}
	orderKey := []query.JoinPred{{Left: col2("orders", "o_orderkey"), Right: col2("lineitem", "l_orderkey")}}
	join := func(op optimizer.Op) *optimizer.Node {
		return &optimizer.Node{Op: op, Children: []*optimizer.Node{scanNode("orders"), scanNode("lineitem")}, Joins: orderKey, IndexCol: "l_orderkey"}
	}
	agg := func(op optimizer.Op) *optimizer.Node {
		return &optimizer.Node{
			Op: op, Children: []*optimizer.Node{scanNode("lineitem")},
			GroupBy:    []query.ColumnRef{col2("lineitem", "l_orderkey")},
			Aggregates: []query.Aggregate{{Func: query.CountStar}, {Func: query.Sum, Col: col2("lineitem", "l_quantity")}},
		}
	}
	for _, bc := range []struct {
		name string
		root *optimizer.Node
	}{
		{"FilteredScan", scanNode("lineitem", qty)},
		{"HashJoin", join(optimizer.OpHashJoin)},
		{"MergeJoin", join(optimizer.OpMergeJoin)},
		{"IndexNLJoin", join(optimizer.OpIndexNLJoin)},
		{"HashAggregate", agg(optimizer.OpHashAggregate)},
		{"StreamAggregate", agg(optimizer.OpStreamAggregate)},
		{"Sort", &optimizer.Node{Op: optimizer.OpSort, Children: []*optimizer.Node{scanNode("lineitem", qty)}, SortBy: []query.ColumnRef{col2("lineitem", "l_quantity")}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			plan := &optimizer.Plan{Root: bc.root}
			b.ReportAllocs()
			var units float64
			for i := 0; i < b.N; i++ {
				res, err := e.ex.Run(plan)
				if err != nil {
					b.Fatal(err)
				}
				units = res.Cost
			}
			b.ReportMetric(units, "units/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/units, "ns/unit")
		})
	}
}
