package executor_test

import (
	"math"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/executor"
	"autostats/internal/optimizer"
	"autostats/internal/sqlparser"
	"autostats/internal/storage"
)

// runAgg executes a SELECT and returns the single/grouped output with a
// convenience accessor.
func runAgg(t *testing.T, e *env, sql string) ([][]catalog.Datum, map[string]int) {
	t.Helper()
	q, err := sqlparser.ParseSelect(e.db.Schema, sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	plan, err := e.sess.Optimize(q)
	if err != nil {
		t.Fatalf("optimize %q: %v", sql, err)
	}
	res, err := e.ex.Run(plan)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	return res.Rows, res.Cols
}

func TestScalarAggregates(t *testing.T) {
	e := newEnv(t, 0, 0.25)
	// Compute expected values straight from storage.
	vals, err := mustTable(t, e.db, "lineitem").ColumnValues("l_quantity")
	if err != nil {
		t.Fatal(err)
	}
	var sum, min, max float64
	min, max = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		sum += v.F
		min = math.Min(min, v.F)
		max = math.Max(max, v.F)
	}
	n := float64(len(vals))

	rows, cols := runAgg(t, e, "SELECT COUNT(*), SUM(l_quantity), AVG(l_quantity), MIN(l_quantity), MAX(l_quantity) FROM lineitem")
	if len(rows) != 1 {
		t.Fatalf("scalar aggregate returned %d rows", len(rows))
	}
	row := rows[0]
	get := func(key string) catalog.Datum {
		p, ok := cols[key]
		if !ok {
			t.Fatalf("missing output column %q in %v", key, cols)
		}
		return row[p]
	}
	if got := get("count(*)"); got.I != int64(n) {
		t.Errorf("COUNT(*) = %v, want %v", got.I, n)
	}
	if got := get("sum(lineitem.l_quantity)"); math.Abs(got.F-sum) > 1e-6 {
		t.Errorf("SUM = %v, want %v", got.F, sum)
	}
	if got := get("avg(lineitem.l_quantity)"); math.Abs(got.F-sum/n) > 1e-9 {
		t.Errorf("AVG = %v, want %v", got.F, sum/n)
	}
	if got := get("min(lineitem.l_quantity)"); got.F != min {
		t.Errorf("MIN = %v, want %v", got.F, min)
	}
	if got := get("max(lineitem.l_quantity)"); got.F != max {
		t.Errorf("MAX = %v, want %v", got.F, max)
	}
}

// runAggBoth optimizes a grouped SELECT and runs its plan under both
// aggregate operators: the plan's aggregate root as the optimizer built it,
// once as OpHashAggregate and once as OpStreamAggregate.
func runAggBoth(t *testing.T, e *env, sql string) (hash, stream [][]catalog.Datum, cols map[string]int) {
	t.Helper()
	q, err := sqlparser.ParseSelect(e.db.Schema, sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	plan, err := e.sess.Optimize(q)
	if err != nil {
		t.Fatalf("optimize %q: %v", sql, err)
	}
	if op := plan.Root.Op; op != optimizer.OpHashAggregate && op != optimizer.OpStreamAggregate {
		t.Fatalf("%q: plan root is %s, not an aggregate", sql, op)
	}
	run := func(op optimizer.Op) *executor.Result {
		root := *plan.Root
		root.Op = op
		res, err := e.ex.Run(&optimizer.Plan{Root: &root})
		if err != nil {
			t.Fatalf("run %q as %s: %v", sql, op, err)
		}
		return res
	}
	h, s := run(optimizer.OpHashAggregate), run(optimizer.OpStreamAggregate)
	return h.Rows, s.Rows, s.Cols
}

// TestGroupedAggregatesMatchReference checks grouped counts against storage
// under both aggregate operators, before and after a statistic on the
// grouping column changes the optimizer's group estimate.
func TestGroupedAggregatesMatchReference(t *testing.T) {
	e := newEnv(t, 2, 0.25)
	// Reference: count per group from storage.
	want := map[string]int64{}
	td := mustTable(t, e.db, "orders")
	pi := td.Schema.ColumnIndex("o_orderpriority")
	td.Scan(func(_ int, r storage.Row) bool {
		want[r[pi].S]++
		return true
	})

	for phase := 0; phase < 2; phase++ {
		hash, stream, cols := runAggBoth(t, e, "SELECT o_orderpriority, COUNT(*) FROM orders GROUP BY o_orderpriority")
		gp, cp := cols["orders.o_orderpriority"], cols["count(*)"]
		for name, rows := range map[string][][]catalog.Datum{"hash": hash, "stream": stream} {
			if len(rows) != len(want) {
				t.Fatalf("phase %d, %s: %d groups, want %d", phase, name, len(rows), len(want))
			}
			for _, r := range rows {
				if r[cp].I != want[r[gp].S] {
					t.Errorf("phase %d, %s: group %q count %d, want %d", phase, name, r[gp].S, r[cp].I, want[r[gp].S])
				}
			}
		}
		if phase == 0 {
			if _, err := e.sess.Manager().Create("orders", []string{"o_orderpriority"}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestAggregateOverEmptyInput(t *testing.T) {
	e := newEnv(t, 0, 0.25)
	rows, cols := runAgg(t, e, "SELECT COUNT(*), SUM(o_totalprice), MIN(o_totalprice) FROM orders WHERE o_totalprice < -99999")
	if len(rows) != 1 {
		t.Fatalf("scalar aggregate over empty input must return 1 row, got %d", len(rows))
	}
	if got := rows[0][cols["count(*)"]]; got.I != 0 {
		t.Errorf("COUNT(*) over empty = %v", got)
	}
	if got := rows[0][cols["sum(orders.o_totalprice)"]]; !got.Null {
		t.Errorf("SUM over empty should be NULL, got %v", got)
	}
	if got := rows[0][cols["min(orders.o_totalprice)"]]; !got.Null {
		t.Errorf("MIN over empty should be NULL, got %v", got)
	}
	// Grouped aggregate over empty input returns no rows.
	rows, _ = runAgg(t, e, "SELECT o_orderpriority, COUNT(*) FROM orders WHERE o_totalprice < -99999 GROUP BY o_orderpriority")
	if len(rows) != 0 {
		t.Errorf("grouped aggregate over empty input returned %d rows", len(rows))
	}
}

func TestSumOverIntColumnStaysInt(t *testing.T) {
	e := newEnv(t, 0, 0.25)
	rows, cols := runAgg(t, e, "SELECT SUM(p_size) FROM part")
	if got := rows[0][cols["sum(part.p_size)"]]; got.T != catalog.Int {
		t.Errorf("SUM over INT column should be Int, got %v (%s)", got.T, got)
	}
}

func TestAggregateSQLRoundTrip(t *testing.T) {
	e := newEnv(t, 0, 0.25)
	sqls := []string{
		"SELECT COUNT(*) FROM orders",
		"SELECT o_orderpriority, COUNT(*), SUM(o_totalprice) FROM orders GROUP BY o_orderpriority",
		"SELECT MIN(l_shipdate) FROM lineitem",
	}
	for _, sql := range sqls {
		q, err := sqlparser.ParseSelect(e.db.Schema, sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		re, err := sqlparser.ParseSelect(e.db.Schema, q.SQL())
		if err != nil {
			t.Fatalf("re-parse %q: %v", q.SQL(), err)
		}
		if re.SQL() != q.SQL() {
			t.Errorf("round trip: %q -> %q", q.SQL(), re.SQL())
		}
	}
}

func TestAggregateParserErrors(t *testing.T) {
	e := newEnv(t, 0, 0.2)
	for _, bad := range []string{
		"SELECT SUM(*) FROM orders",
		"SELECT FROB(o_totalprice) FROM orders",
		"SELECT SUM(o_orderpriority) FROM orders", // SUM over string
		"SELECT SUM(o_totalprice FROM orders",
	} {
		if _, err := sqlparser.ParseSelect(e.db.Schema, bad); err == nil {
			t.Errorf("expected parse error for %q", bad)
		}
	}
}

// TestAggregatesDoNotChangeCandidates: per §3.1, aggregate arguments are not
// statistics-relevant; candidate sets with and without the aggregates must
// coincide.
func TestAggregatesDoNotChangeRelevance(t *testing.T) {
	e := newEnv(t, 0, 0.2)
	a, err := sqlparser.ParseSelect(e.db.Schema, "SELECT o_orderpriority FROM orders WHERE o_totalprice > 100 GROUP BY o_orderpriority")
	if err != nil {
		t.Fatal(err)
	}
	b, err := sqlparser.ParseSelect(e.db.Schema, "SELECT o_orderpriority, SUM(o_shippriority), COUNT(*) FROM orders WHERE o_totalprice > 100 GROUP BY o_orderpriority")
	if err != nil {
		t.Fatal(err)
	}
	pa, err := e.sess.Optimize(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := e.sess.Optimize(b)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pb.MissingVars, pa.MissingVars; len(got) != len(want) {
		t.Errorf("aggregates changed missing vars: %v vs %v", got, want)
	}
}
