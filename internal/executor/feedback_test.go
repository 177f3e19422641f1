package executor_test

import (
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/executor"
	"autostats/internal/feedback"
	"autostats/internal/obs"
	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/storage"
)

// feedbackEnv is an env with a ledger-attached executor next to a plain one.
type feedbackEnv struct {
	*env
	led  *Ledger
	exFB *executor.Executor
}

// Ledger aliases the feedback ledger so the struct above reads naturally.
type Ledger = feedback.Ledger

func newFeedbackEnv(t testing.TB, z, scale float64) *feedbackEnv {
	t.Helper()
	e := newEnv(t, z, scale)
	led := feedback.NewLedger(nil, feedback.Config{Obs: obs.New()})
	exFB := executor.New(e.db)
	exFB.SetFeedback(led)
	return &feedbackEnv{env: e, led: led, exFB: exFB}
}

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

// groupCount counts distinct non-grouped... distinct l_orderkey groups, and
// how many of them have more than minCount rows.
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

func findObs(t *testing.T, obsList []feedback.NodeObservation, op string) feedback.NodeObservation {
	t.Helper()
	for _, o := range obsList {
		if o.Op == op {
			return o
		}
	}
	t.Fatalf("no %s observation in %+v", op, obsList)
	return feedback.NodeObservation{}
}

func scanNode(table string, filters ...query.Filter) *optimizer.Node {
	return &optimizer.Node{Op: optimizer.OpTableScan, Table: table, Filters: filters, EstRows: 77}
}

// TestActualRowAccountingPerOperator runs every physical operator against an
// independent brute-force oracle: the observation recorded for each node must
// carry the exact materialized row count.
func TestActualRowAccountingPerOperator(t *testing.T) {
	fe := newFeedbackEnv(t, 0, 0.2)
	db := fe.db
	qtyFilter := query.Filter{Col: col2("lineitem", "l_quantity"), Op: query.Gt, Val: catalog.NewFloat(25)}
	dateFilter := query.Filter{Col: col2("orders", "o_orderdate"), Op: query.Gt, Val: catalog.NewDate(9500)}
	joinPred := query.JoinPred{Left: col2("orders", "o_orderkey"), Right: col2("lineitem", "l_orderkey")}

	run := func(t *testing.T, root *optimizer.Node) []feedback.NodeObservation {
		t.Helper()
		res, err := fe.exFB.Run(&optimizer.Plan{Root: root})
		if err != nil {
			t.Fatal(err)
		}
		return res.Feedback
	}

	wantJoin := joinCount(t, db)

	t.Run("TableScan", func(t *testing.T) {
		obsList := run(t, scanNode("lineitem", qtyFilter))
		o := findObs(t, obsList, "TableScan")
		want := countWhere(t, db, "lineitem", []query.Filter{qtyFilter})
		if o.ActualRows != want {
			t.Errorf("scan actual = %d, want %d", o.ActualRows, want)
		}
		if o.Table != "lineitem" || o.Columns != "l_quantity" || o.Signature == "" {
			t.Errorf("scan observation key fields = %+v", o)
		}
		if o.EstRows != 77 {
			t.Errorf("scan est = %g, want the node estimate 77", o.EstRows)
		}
	})

	t.Run("IndexSeek", func(t *testing.T) {
		root := &optimizer.Node{
			Op: optimizer.OpIndexSeek, Table: "orders", IndexCol: "o_orderdate",
			Filters: []query.Filter{dateFilter}, SeekFilters: []query.Filter{dateFilter}, EstRows: 77,
		}
		o := findObs(t, run(t, root), "IndexSeek")
		want := countWhere(t, db, "orders", []query.Filter{dateFilter})
		if o.ActualRows != want {
			t.Errorf("seek actual = %d, want %d", o.ActualRows, want)
		}
		if o.Table != "orders" || o.Columns != "o_orderdate" {
			t.Errorf("seek observation key fields = %+v", o)
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
				EstRows:  77,
			}
			obsList := run(t, root)
			if len(obsList) != 3 {
				t.Fatalf("got %d observations, want 3 (2 scans + join): %+v", len(obsList), obsList)
			}
			o := findObs(t, obsList, jt.name)
			if o.ActualRows != wantJoin {
				t.Errorf("%s actual = %d, want %d", jt.name, o.ActualRows, wantJoin)
			}
			if o.Table != "" {
				t.Errorf("join observation should carry no table, got %q", o.Table)
			}
		})
	}

	t.Run("IndexNLJoin", func(t *testing.T) {
		root := &optimizer.Node{
			Op:       optimizer.OpIndexNLJoin,
			Children: []*optimizer.Node{scanNode("orders"), scanNode("lineitem")},
			IndexCol: "l_orderkey",
			Joins:    []query.JoinPred{joinPred},
			EstRows:  77,
		}
		obsList := run(t, root)
		// The inner base table is probed inline, not dispatched: only the
		// outer scan and the join node observe.
		if len(obsList) != 2 {
			t.Fatalf("got %d observations, want 2 (outer scan + join): %+v", len(obsList), obsList)
		}
		o := findObs(t, obsList, "IndexNLJoin")
		if o.ActualRows != wantJoin {
			t.Errorf("index NL join actual = %d, want %d", o.ActualRows, wantJoin)
		}
	})

	groups, passing := groupCount(t, db, 3)

	t.Run("HashAgg", func(t *testing.T) {
		root := &optimizer.Node{
			Op:         optimizer.OpHashAggregate,
			Children:   []*optimizer.Node{scanNode("lineitem")},
			GroupBy:    []query.ColumnRef{col2("lineitem", "l_orderkey")},
			Aggregates: []query.Aggregate{{Func: query.CountStar}},
			EstRows:    77,
		}
		o := findObs(t, run(t, root), "HashAgg")
		if o.ActualRows != groups {
			t.Errorf("hash agg actual = %d, want %d groups", o.ActualRows, groups)
		}
	})

	t.Run("StreamAgg", func(t *testing.T) {
		root := &optimizer.Node{
			Op:         optimizer.OpStreamAggregate,
			Children:   []*optimizer.Node{scanNode("lineitem")},
			GroupBy:    []query.ColumnRef{col2("lineitem", "l_orderkey")},
			Aggregates: []query.Aggregate{{Func: query.Sum, Col: col2("lineitem", "l_quantity")}},
			EstRows:    77,
		}
		o := findObs(t, run(t, root), "StreamAgg")
		if o.ActualRows != groups {
			t.Errorf("stream agg actual = %d, want %d groups", o.ActualRows, groups)
		}
	})

	t.Run("Having", func(t *testing.T) {
		root := &optimizer.Node{
			Op:         optimizer.OpHashAggregate,
			Children:   []*optimizer.Node{scanNode("lineitem")},
			GroupBy:    []query.ColumnRef{col2("lineitem", "l_orderkey")},
			Aggregates: []query.Aggregate{{Func: query.CountStar}},
			Having:     []query.HavingPred{{Agg: query.Aggregate{Func: query.CountStar}, Op: query.Gt, Val: catalog.NewInt(3)}},
			EstRows:    77,
		}
		o := findObs(t, run(t, root), "HashAgg")
		if o.ActualRows != passing {
			t.Errorf("post-HAVING actual = %d, want %d", o.ActualRows, passing)
		}
	})

	t.Run("Sort", func(t *testing.T) {
		root := &optimizer.Node{
			Op:       optimizer.OpSort,
			Children: []*optimizer.Node{scanNode("lineitem", qtyFilter)},
			SortBy:   []query.ColumnRef{col2("lineitem", "l_quantity")},
			EstRows:  77,
		}
		o := findObs(t, run(t, root), "Sort")
		want := countWhere(t, db, "lineitem", []query.Filter{qtyFilter})
		if o.ActualRows != want {
			t.Errorf("sort actual = %d, want %d", o.ActualRows, want)
		}
	})
}

func col2(t, c string) query.ColumnRef { return query.ColumnRef{Table: t, Column: c} }

// TestDisabledFeedbackAddsNoAllocations pins the nil-collector fast path: an
// executor that once had a ledger attached and then detached must allocate
// exactly as much per Run as one that never saw feedback at all.
func TestDisabledFeedbackAddsNoAllocations(t *testing.T) {
	e := newEnv(t, 0, 0.05)
	plan := &optimizer.Plan{Root: scanNode("nation")}
	exPlain := executor.New(e.db)
	exDetached := executor.New(e.db)
	exDetached.SetFeedback(feedback.NewLedger(nil, feedback.Config{Obs: obs.New()}))
	exDetached.SetFeedback(nil)

	measure := func(ex *executor.Executor) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := ex.Run(plan); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain := measure(exPlain)
	detached := measure(exDetached)
	if plain != detached {
		t.Errorf("disabled feedback path allocates %v/run vs %v/run baseline", detached, plain)
	}
}

// benchPlan builds a moderately complex plan (join + scans) directly, so the
// benchmark isolates execution from optimization.
func benchPlan() *optimizer.Node {
	return &optimizer.Node{
		Op: optimizer.OpHashJoin,
		Children: []*optimizer.Node{
			scanNode("orders", query.Filter{Col: col2("orders", "o_orderdate"), Op: query.Gt, Val: catalog.NewDate(9000)}),
			scanNode("lineitem", query.Filter{Col: col2("lineitem", "l_quantity"), Op: query.Gt, Val: catalog.NewFloat(10)}),
		},
		Joins:   []query.JoinPred{{Left: col2("orders", "o_orderkey"), Right: col2("lineitem", "l_orderkey")}},
		EstRows: 100,
	}
}

// BenchmarkFeedbackCapture compares executor throughput with feedback
// disabled and enabled; the delta is the capture overhead (acceptance:
// disabled adds no allocations, enabled < 5%).
func BenchmarkFeedbackCapture(b *testing.B) {
	e := newEnv(b, 0, 0.2)
	plan := &optimizer.Plan{Root: benchPlan()}

	b.Run("off", func(b *testing.B) {
		ex := executor.New(e.db)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ex.Run(plan); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		ex := executor.New(e.db)
		ex.SetFeedback(feedback.NewLedger(nil, feedback.Config{Obs: obs.New()}))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ex.Run(plan); err != nil {
				b.Fatal(err)
			}
		}
	})
}
