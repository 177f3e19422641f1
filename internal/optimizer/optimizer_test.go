package optimizer

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"autostats/internal/catalog"
	"autostats/internal/datagen"
	"autostats/internal/histogram"
	"autostats/internal/query"
	"autostats/internal/stats"
	"autostats/internal/storage"
)

func testSession(t testing.TB, z float64) (*Session, *storage.Database) {
	t.Helper()
	db, err := datagen.Generate(datagen.Config{Scale: 0.5, Z: z, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	mgr := stats.NewManager(db, histogram.MaxDiff, 0)
	return NewSession(mgr), db
}

// q builds a normalized Select programmatically.
func mkSelect(tables []string, filters []query.Filter, joins []query.JoinPred, groupBy []query.ColumnRef) *query.Select {
	s := &query.Select{Tables: tables, Filters: filters, Joins: joins, GroupBy: groupBy, GroupVarID: -1}
	s.Normalize()
	return s
}

func col(t, c string) query.ColumnRef { return query.ColumnRef{Table: t, Column: c} }

func TestSingleTableScanPlan(t *testing.T) {
	sess, db := testSession(t, 0)
	q := mkSelect([]string{"lineitem"},
		[]query.Filter{{Col: col("lineitem", "l_quantity"), Op: query.Lt, Val: catalog.NewFloat(10)}},
		nil, nil)
	p, err := sess.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Root.Op != OpTableScan {
		t.Errorf("expected TableScan, got %s", p.Root.Op)
	}
	n := float64(mustTable(t, db, "lineitem").RowCount())
	if p.Root.Cost != n*CostRowScan {
		t.Errorf("scan cost = %v, want %v", p.Root.Cost, n)
	}
	if len(p.MissingVars) != 1 {
		t.Errorf("missing vars = %v", p.MissingVars)
	}
}

// TestAccessPathFlipsWithStats: the core §1 phenomenon in miniature — with
// no statistics, a magic range selectivity of 0.30 keeps a table scan; once
// a histogram reveals a highly selective predicate, the index seek wins.
func TestAccessPathFlipsWithStats(t *testing.T) {
	sess, _ := testSession(t, 2)
	// o_orderdate is indexed; under z=2 dates cluster near 8035, so a high
	// cutoff is very selective.
	q := mkSelect([]string{"orders"},
		[]query.Filter{{Col: col("orders", "o_orderdate"), Op: query.Gt, Val: catalog.NewDate(10400)}},
		nil, nil)
	before, err := sess.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if before.Root.Op != OpTableScan {
		t.Fatalf("with magic 0.30 expected TableScan, got %s", before.Root.Op)
	}
	if _, err := sess.Manager().Create("orders", []string{"o_orderdate"}); err != nil {
		t.Fatal(err)
	}
	after, err := sess.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Root.Op != OpIndexSeek {
		t.Errorf("with statistics expected IndexSeek, got %s\n%s", after.Root.Op, after.Format())
	}
	if len(after.MissingVars) != 0 {
		t.Errorf("missing vars after stats = %v", after.MissingVars)
	}
	if len(after.UsedStats) == 0 {
		t.Error("UsedStats should record the consulted statistic")
	}
}

func TestIgnoreStatisticsSubset(t *testing.T) {
	sess, _ := testSession(t, 2)
	id, _ := sess.Manager().Create("orders", []string{"o_orderdate"})
	q := mkSelect([]string{"orders"},
		[]query.Filter{{Col: col("orders", "o_orderdate"), Op: query.Gt, Val: catalog.NewDate(10400)}},
		nil, nil)
	with, _ := sess.Optimize(q)
	without, _ := sess.OptimizeWhatIf(q, WhatIf{Hide: []stats.ID{id.ID}})
	if with.Signature() == without.Signature() {
		t.Error("ignoring the only relevant statistic should change the plan")
	}
	if len(without.MissingVars) != 1 {
		t.Errorf("ignored statistic should make the variable missing: %v", without.MissingVars)
	}
	// Hiding is per call: the next plain optimization sees the statistic.
	again, _ := sess.Optimize(q)
	if again.Signature() != with.Signature() {
		t.Error("a hidden statistic must stay hidden only for its own call")
	}
}

// TestOverridesOnlyApplyWhenMissing: §7.2 — a selectivity parameter replaces
// the MAGIC NUMBER, never a histogram estimate.
func TestOverridesOnlyApplyWhenMissing(t *testing.T) {
	sess, _ := testSession(t, 2)
	q := mkSelect([]string{"orders"},
		[]query.Filter{{Col: col("orders", "o_totalprice"), Op: query.Gt, Val: catalog.NewFloat(100)}},
		nil, []query.ColumnRef{col("orders", "o_orderpriority")})
	// Missing: override moves the estimate.
	low, _ := sess.OptimizeWhatIf(q, WhatIf{Overrides: map[int]float64{0: 0.001}})
	high, _ := sess.OptimizeWhatIf(q, WhatIf{Overrides: map[int]float64{0: 0.999}})
	if low.Cost() >= high.Cost() {
		t.Errorf("override should move cost: low %v, high %v", low.Cost(), high.Cost())
	}
	// Covered: override is inert.
	if _, err := sess.Manager().Create("orders", []string{"o_totalprice"}); err != nil {
		t.Fatal(err)
	}
	base, _ := sess.Optimize(q)
	ov, _ := sess.OptimizeWhatIf(q, WhatIf{Overrides: map[int]float64{0: 0.001}})
	if base.Cost() != ov.Cost() {
		t.Errorf("override applied despite statistics: %v vs %v", base.Cost(), ov.Cost())
	}
}

// TestMissingStatVars: a plan's MissingVars are step (a) of §4.1, the
// selectivity variables that fall back to magic numbers under the visible
// statistics.
func TestMissingStatVars(t *testing.T) {
	sess, _ := testSession(t, 0)
	q := mkSelect([]string{"lineitem", "orders"},
		[]query.Filter{
			{Col: col("lineitem", "l_quantity"), Op: query.Lt, Val: catalog.NewFloat(10)},
			{Col: col("orders", "o_totalprice"), Op: query.Gt, Val: catalog.NewFloat(1000)},
		},
		[]query.JoinPred{{Left: col("lineitem", "l_orderkey"), Right: col("orders", "o_orderkey")}},
		[]query.ColumnRef{col("orders", "o_orderpriority")})
	missing := func() []int {
		t.Helper()
		p, err := sess.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		return p.MissingVars
	}
	if got := missing(); len(got) != 4 {
		t.Fatalf("all 4 vars should be missing, got %v", got)
	}
	// Join stats cover the join var; one side alone does not.
	_, _ = sess.Manager().Create("lineitem", []string{"l_orderkey"})
	if got := missing(); len(got) != 4 {
		t.Errorf("join var needs BOTH sides: %v", got)
	}
	_, _ = sess.Manager().Create("orders", []string{"o_orderkey"})
	if got := missing(); len(got) != 3 {
		t.Errorf("after join pair: %v", got)
	}
	_, _ = sess.Manager().Create("lineitem", []string{"l_quantity"})
	_, _ = sess.Manager().Create("orders", []string{"o_totalprice"})
	if got := missing(); len(got) != 1 || got[0] != q.GroupVarID {
		t.Errorf("only the group var should remain: %v", got)
	}
	_, _ = sess.Manager().Create("orders", []string{"o_orderpriority"})
	if got := missing(); len(got) != 0 {
		t.Errorf("nothing should be missing: %v", got)
	}
}

// TestCostMonotonicity is the property MNSA's correctness rests on (§4.1):
// the optimizer-estimated cost is monotone in every selectivity variable.
// We pin all missing variables to random vectors u ≤ v and require
// Cost(P(u)) ≤ Cost(P(v)); since the optimizer returns the min-cost plan
// and every individual plan's cost is monotone, the minimum is monotone.
func TestCostMonotonicity(t *testing.T) {
	sess, _ := testSession(t, 1)
	queries := []*query.Select{
		mkSelect([]string{"lineitem", "orders"},
			[]query.Filter{
				{Col: col("lineitem", "l_quantity"), Op: query.Lt, Val: catalog.NewFloat(10)},
				{Col: col("orders", "o_totalprice"), Op: query.Gt, Val: catalog.NewFloat(1000)},
			},
			[]query.JoinPred{{Left: col("lineitem", "l_orderkey"), Right: col("orders", "o_orderkey")}},
			nil),
		mkSelect([]string{"lineitem", "orders", "customer"},
			[]query.Filter{
				{Col: col("customer", "c_acctbal"), Op: query.Gt, Val: catalog.NewFloat(0)},
			},
			[]query.JoinPred{
				{Left: col("lineitem", "l_orderkey"), Right: col("orders", "o_orderkey")},
				{Left: col("orders", "o_custkey"), Right: col("customer", "c_custkey")},
			},
			[]query.ColumnRef{col("customer", "c_mktsegment")}),
	}
	rng := rand.New(rand.NewSource(17))
	for qi, q := range queries {
		nv := len(q.Filters) + len(q.Joins)
		if q.GroupVarID >= 0 {
			nv++
		}
		f := func() bool {
			u := make(map[int]float64, nv)
			v := make(map[int]float64, nv)
			for i := 0; i < nv; i++ {
				a := rng.Float64()
				b := a + rng.Float64()*(1-a)
				u[i], v[i] = a, b
			}
			pu, err := sess.OptimizeWhatIf(q, WhatIf{Overrides: u})
			if err != nil {
				t.Fatal(err)
			}
			pv, err := sess.OptimizeWhatIf(q, WhatIf{Overrides: v})
			if err != nil {
				t.Fatal(err)
			}
			// Allow a hair of float slack.
			return pu.Cost() <= pv.Cost()*(1+1e-9)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("query %d violates cost monotonicity: %v", qi, err)
		}
	}
}

func TestJoinPlanShapes(t *testing.T) {
	sess, _ := testSession(t, 0)
	q := mkSelect([]string{"lineitem", "orders"}, nil,
		[]query.JoinPred{{Left: col("lineitem", "l_orderkey"), Right: col("orders", "o_orderkey")}},
		nil)
	p, err := sess.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	switch p.Root.Op {
	case OpHashJoin, OpMergeJoin, OpIndexNLJoin, OpNestedLoopJoin:
	default:
		t.Errorf("join query produced %s", p.Root.Op)
	}
	if len(p.Root.Children) != 2 {
		t.Errorf("join has %d children", len(p.Root.Children))
	}
}

func TestEightWayJoinCompletes(t *testing.T) {
	sess, db := testSession(t, 0)
	tables := db.Schema.TableNames()
	if len(tables) != 8 {
		t.Fatalf("TPC-D has %d tables", len(tables))
	}
	var joins []query.JoinPred
	for _, fk := range db.Schema.ForeignKeys {
		joins = append(joins, query.JoinPred{
			Left:  col(strings.ToLower(fk.Table), strings.ToLower(fk.Column)),
			Right: col(strings.ToLower(fk.RefTable), strings.ToLower(fk.RefColumn)),
		})
	}
	q := mkSelect(tables, nil, joins, nil)
	p, err := sess.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	// Count the base tables in the plan.
	seen := map[string]bool{}
	var walk func(*Node)
	walk = func(n *Node) {
		if n.Table != "" {
			seen[n.Table] = true
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.Root)
	if len(seen) != 8 {
		t.Errorf("plan covers %d tables, want 8", len(seen))
	}
}

func TestCartesianFallback(t *testing.T) {
	sess, _ := testSession(t, 0)
	q := mkSelect([]string{"region", "nation"}, nil, nil, nil) // no join pred
	p, err := sess.Optimize(q)
	if err != nil {
		t.Fatalf("disconnected query must still plan: %v", err)
	}
	if p.Root.EstRows < 100 {
		t.Errorf("cartesian estimate too low: %v", p.Root.EstRows)
	}
}

func TestOptimizeErrors(t *testing.T) {
	sess, _ := testSession(t, 0)
	if _, err := sess.Optimize(&query.Select{}); err == nil {
		t.Error("no tables should error")
	}
	dup := mkSelect([]string{"orders", "orders"}, nil, nil, nil)
	if _, err := sess.Optimize(dup); err == nil {
		t.Error("self-join should error")
	}
	badJoin := mkSelect([]string{"orders"}, nil,
		[]query.JoinPred{{Left: col("orders", "o_custkey"), Right: col("customer", "c_custkey")}}, nil)
	if _, err := sess.Optimize(badJoin); err == nil {
		t.Error("join referencing absent table should error")
	}
}

func TestSignatureStability(t *testing.T) {
	sess, _ := testSession(t, 1)
	q := mkSelect([]string{"lineitem", "orders"},
		[]query.Filter{{Col: col("lineitem", "l_quantity"), Op: query.Lt, Val: catalog.NewFloat(10)}},
		[]query.JoinPred{{Left: col("lineitem", "l_orderkey"), Right: col("orders", "o_orderkey")}},
		nil)
	p1, _ := sess.Optimize(q)
	p2, _ := sess.Optimize(q)
	if p1.Signature() != p2.Signature() {
		t.Error("optimization must be deterministic")
	}
	if p1.Cost() != p2.Cost() {
		t.Error("cost must be deterministic")
	}
}

func TestGroupAggregateChoice(t *testing.T) {
	sess, _ := testSession(t, 0)
	mgr := sess.Manager()
	// High-cardinality grouping: with statistics the optimizer should know
	// the group count is near the input size and prefer the sort-based
	// aggregate; with the magic fraction (0.1) it prefers hash.
	q := mkSelect([]string{"orders"}, nil, nil, []query.ColumnRef{col("orders", "o_orderkey")})
	before, _ := sess.Optimize(q)
	if before.Root.Op != OpHashAggregate {
		t.Errorf("magic group fraction should pick HashAgg, got %s", before.Root.Op)
	}
	_, _ = mgr.Create("orders", []string{"o_orderkey"})
	after, _ := sess.Optimize(q)
	if after.Root.Op != OpStreamAggregate {
		t.Errorf("known high-cardinality grouping should pick StreamAgg, got %s", after.Root.Op)
	}
}

func TestMultiColumnDensityUsedForEqConjunction(t *testing.T) {
	sess, _ := testSession(t, 2)
	mgr := sess.Manager()
	q := mkSelect([]string{"part"},
		[]query.Filter{
			{Col: col("part", "p_brand"), Op: query.Eq, Val: catalog.NewString("Brand#11")},
			{Col: col("part", "p_container"), Op: query.Eq, Val: catalog.NewString("SM BAG")},
		}, nil, nil)
	_, _ = mgr.Create("part", []string{"p_brand"})
	_, _ = mgr.Create("part", []string{"p_container"})
	indep, _ := sess.Optimize(q)
	_, _ = mgr.Create("part", []string{"p_brand", "p_container"})
	multi, _ := sess.Optimize(q)
	usesMulti := false
	for _, id := range multi.UsedStats {
		if id == stats.MakeID("part", []string{"p_brand", "p_container"}) {
			usesMulti = true
		}
	}
	if !usesMulti {
		t.Error("multi-column statistic should be consulted for the equality conjunction")
	}
	_ = indep
}
