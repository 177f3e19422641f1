package core

import (
	"context"
	"testing"

	"autostats/internal/executor"
	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/sqlparser"
	"autostats/internal/workload"
)

func TestEquivalenceNotions(t *testing.T) {
	mk := func(cost float64, table string) *optimizer.Plan {
		return &optimizer.Plan{
			Root:  &optimizer.Node{Op: optimizer.OpTableScan, Table: table, Cost: cost},
			Query: &query.Select{},
		}
	}
	a, b := mk(100, "t"), mk(100, "t")
	if !(ExecutionTree{}).Equivalent(a, b) {
		t.Error("identical plans must be execution-tree equivalent")
	}
	c := mk(100, "u")
	if (ExecutionTree{}).Equivalent(a, c) {
		t.Error("different trees are not execution-tree equivalent")
	}
	if !(optimizerCost{}).Equivalent(a, c) {
		t.Error("equal costs are optimizer-cost equivalent regardless of tree")
	}
	d := mk(115, "t")
	if (optimizerCost{}).Equivalent(a, d) {
		t.Error("115 vs 100 is not exact-cost equivalent")
	}
	if !(TOptimizerCost{T: 20}).Equivalent(a, d) {
		t.Error("15% apart is within t=20%")
	}
	if (TOptimizerCost{T: 10}).Equivalent(a, d) {
		t.Error("15% apart is outside t=10%")
	}
	// Footnote 2 divides by the SMALLER cost.
	e := mk(119, "t")
	if !(TOptimizerCost{T: 20}).Equivalent(a, e) {
		t.Error("19/100 < 20% must be equivalent")
	}
	f := mk(121, "t")
	if (TOptimizerCost{T: 20}).Equivalent(a, f) {
		t.Error("21/100 > 20% must not be equivalent")
	}
	for _, eq := range []Equivalence{ExecutionTree{}, optimizerCost{}, TOptimizerCost{T: 20}} {
		if eq.Name() == "" {
			t.Error("equivalence must have a name")
		}
	}
}

func TestWorkloadCandidatesDedup(t *testing.T) {
	db := testDB(t, 0)
	q1 := mustParse(t, db, "SELECT * FROM orders WHERE o_totalprice > 100")
	q2 := mustParse(t, db, "SELECT * FROM orders WHERE o_totalprice < 500 AND o_shippriority = 0")
	cands := WorkloadCandidates([]*querySelect{q1, q2}, CandidateStats)
	seen := map[string]bool{}
	for _, c := range cands {
		id := string(c.ID())
		if seen[id] {
			t.Errorf("duplicate candidate %s", id)
		}
		seen[id] = true
	}
	if !seen["orders(o_totalprice)"] || !seen["orders(o_shippriority)"] || !seen["orders(o_shippriority,o_totalprice)"] {
		t.Errorf("missing expected candidates: %v", seen)
	}
}

func TestOrderByColumnsNotRelevant(t *testing.T) {
	db := testDB(t, 0)
	q := mustParse(t, db, "SELECT * FROM orders WHERE o_totalprice > 100 ORDER BY o_orderdate")
	for _, c := range CandidateStats(q) {
		for _, col := range c.Columns {
			if col == "o_orderdate" {
				t.Errorf("ORDER BY-only column proposed as candidate (footnote 1): %s", c.ID())
			}
		}
	}
}

// TestOnTheFlyAutoManager drives the §6 aggressive policy end to end:
// queries trigger MNSA creation, DML drives the maintenance counters.
func TestOnTheFlyAutoManager(t *testing.T) {
	db := testDB(t, 2)
	sess := newSession(t, db)
	am := NewAutoManager(sess, executor.New(db))
	am.MaintenanceEvery = 10

	stmts := []string{
		"SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 45",
		"INSERT INTO region VALUES (9, 'X', 'c')",
		"SELECT * FROM orders WHERE o_totalprice > 400000",
		"DELETE FROM region WHERE r_regionkey = 9",
	}
	for _, sql := range stmts {
		stmt, err := sqlparser.Parse(db.Schema, sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := am.ProcessStatement(context.Background(), stmt); err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
	}
	if len(sess.Manager().All()) == 0 {
		t.Error("on-the-fly mode should have created statistics")
	}
	if am.TotalExecCost <= 0 || am.StatementsRun != 4 {
		t.Errorf("accounting: cost=%v statements=%d", am.TotalExecCost, am.StatementsRun)
	}
	// Re-processing the same query should create nothing new (statistics
	// are already adequate) — the chicken-and-egg payoff.
	before := len(sess.Manager().All())
	stmt, _ := sqlparser.Parse(db.Schema, stmts[0])
	if _, _, err := am.ProcessStatement(context.Background(), stmt); err != nil {
		t.Fatal(err)
	}
	if got := len(sess.Manager().All()); got != before {
		t.Errorf("repeat query created %d new statistics", got-before)
	}
}

// TestOfflineTune drives the conservative §6 policy: MNSA over the workload
// then Shrinking Set, with the non-essential remainder drop-listed.
func TestOfflineTune(t *testing.T) {
	db := testDB(t, 2)
	sess := newSession(t, db)
	w, err := workload.Generate(db, workload.Config{Count: 20, Complexity: workload.Simple, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := OfflineTuneCtx(context.Background(), sess, w.Queries(), DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MNSA.Created) == 0 {
		t.Fatal("offline tune created nothing")
	}
	mgr := sess.Manager()
	if len(rep.Shrink.Kept)+len(rep.Shrink.Removed) != len(mgr.All()) {
		t.Errorf("kept %d + removed %d != total %d", len(rep.Shrink.Kept), len(rep.Shrink.Removed), len(mgr.All()))
	}
	for _, id := range rep.DropListed {
		st := mgr.Get(id)
		if st == nil || !st.InDropList {
			t.Errorf("removed statistic %s not drop-listed", id)
		}
	}
	for _, id := range rep.Shrink.Kept {
		st := mgr.Get(id)
		if st == nil || st.InDropList {
			t.Errorf("essential statistic %s should be maintained", id)
		}
	}
}

// TestMNSADResurrection: a statistic wrongly drop-listed for one query is
// rescued when a later query's plan depends on it (§5).
func TestMNSADResurrection(t *testing.T) {
	db := testDB(t, 2)
	sess := newSession(t, db)
	mgr := sess.Manager()
	cfg := DefaultConfig()
	cfg.Drop = true

	// Force the scenario: create a statistic and drop-list it manually,
	// then run MNSA/D on a query whose plan needs it.
	st, err := mgr.Create("orders", []string{"o_orderdate"})
	if err != nil {
		t.Fatal(err)
	}
	mgr.AddToDropList(st.ID)
	q := mustParse(t, db, "SELECT * FROM orders WHERE o_orderdate > DATE 10400")
	res, err := RunMNSA(context.Background(), sess, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A drop-list change publishes a replacement; st itself is never written.
	if mgr.IsDropListed(st.ID) {
		t.Errorf("statistic should have been resurrected; result: %+v", res)
	}
}

func TestExhaustiveIsSupersetOfCandidates(t *testing.T) {
	db := testDB(t, 0)
	for _, sql := range []string{
		"SELECT * FROM lineitem WHERE l_quantity > 10 AND l_discount < 0.05 AND l_tax = 0",
		"SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_totalprice > 100",
		"SELECT o_orderpriority FROM orders GROUP BY o_orderpriority",
	} {
		q := mustParse(t, db, sql)
		ex := map[string]bool{}
		for _, c := range ExhaustiveStats(q) {
			ex[string(c.ID())] = true
		}
		for _, c := range CandidateStats(q) {
			if len(c.Columns) > exhaustiveMaxWidth {
				continue
			}
			// Exhaustive enumerates subsets in sorted order; candidates are
			// sorted too, so IDs line up.
			if !ex[string(c.ID())] {
				t.Errorf("%q: candidate %s missing from exhaustive set", sql, c.ID())
			}
		}
	}
}
