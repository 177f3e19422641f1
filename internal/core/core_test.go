package core

import (
	"context"
	"slices"
	"testing"

	"autostats/internal/datagen"
	"autostats/internal/executor"
	"autostats/internal/histogram"
	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/sqlparser"
	"autostats/internal/stats"
	"autostats/internal/storage"
)

// querySelect shortens signatures in tests.
type querySelect = query.Select

func testDB(t testing.TB, z float64) *storage.Database {
	t.Helper()
	db, err := datagen.Generate(datagen.Config{Scale: 0.5, Z: z, Seed: 11})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return db
}

func newSession(t testing.TB, db *storage.Database) *optimizer.Session {
	t.Helper()
	return optimizer.NewSession(stats.NewManager(db, histogram.MaxDiff, 0))
}

func mustParse(t testing.TB, db *storage.Database, sql string) *querySelect {
	t.Helper()
	q, err := sqlparser.ParseSelect(db.Schema, sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return q
}

var tuningWorkloadSQL = []string{
	"SELECT * FROM lineitem WHERE l_quantity > 45",
	"SELECT * FROM orders WHERE o_totalprice < 1000",
	"SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_discount > 0.05",
	"SELECT * FROM customer WHERE c_acctbal > 9000",
	"SELECT * FROM lineitem, partsupp WHERE l_partkey = ps_partkey AND l_quantity < 5",
	"SELECT * FROM orders, customer WHERE o_custkey = c_custkey AND o_totalprice > 50000",
}

func tuningWorkload(t testing.TB, db *storage.Database) []*querySelect {
	t.Helper()
	qs := make([]*querySelect, 0, len(tuningWorkloadSQL))
	for _, sql := range tuningWorkloadSQL {
		qs = append(qs, mustParse(t, db, sql))
	}
	return qs
}

// TestExample3 reproduces Example 3 of §7.1 on an equivalent query shape:
// two join predicates between two tables plus three selection predicates on
// one of them. Candidates must include the per-table join multi-column
// statistics and the selection multi-column statistic, but not the pairwise
// sub-combinations.
func TestExample3(t *testing.T) {
	db := testDB(t, 0)
	// Shape of Q2 = SELECT * FROM R1, R2 WHERE R1.a=R2.b AND R1.c=R2.d AND
	// R1.e<100 AND R1.f>10 AND R1.g=25, mapped onto lineitem/partsupp which
	// share two joinable column pairs.
	q := mustParse(t, db, `SELECT * FROM lineitem, partsupp
		WHERE l_partkey = ps_partkey AND l_suppkey = ps_suppkey
		AND l_quantity < 30 AND l_discount > 0.02 AND l_linenumber = 2`)
	cands := CandidateStats(q)

	want := map[string]bool{
		// (a) single-column statistics on each relevant column.
		"lineitem(l_partkey)":    true,
		"lineitem(l_suppkey)":    true,
		"lineitem(l_quantity)":   true,
		"lineitem(l_discount)":   true,
		"lineitem(l_linenumber)": true,
		"partsupp(ps_partkey)":   true,
		"partsupp(ps_suppkey)":   true,
		// (b) one multi-column statistic per table on selection columns.
		"lineitem(l_discount,l_linenumber,l_quantity)": true,
		// (c) one multi-column statistic per table on join columns.
		"lineitem(l_partkey,l_suppkey)":   true,
		"partsupp(ps_partkey,ps_suppkey)": true,
	}
	got := map[string]bool{}
	for _, c := range cands {
		got[string(c.ID())] = true
	}
	for id := range want {
		if !got[id] {
			t.Errorf("missing expected candidate %s", id)
		}
	}
	for id := range got {
		if !want[id] {
			t.Errorf("unexpected candidate %s", id)
		}
	}
	// The pairwise selection sub-combinations must NOT be proposed.
	for _, bad := range []string{
		"lineitem(l_discount,l_quantity)",
		"lineitem(l_discount,l_linenumber)",
		"lineitem(l_linenumber,l_quantity)",
	} {
		if got[bad] {
			t.Errorf("candidate %s should not be proposed (Example 3)", bad)
		}
	}
	// Exhaustive must include those pairwise combinations.
	exGot := map[string]bool{}
	for _, c := range ExhaustiveStats(q) {
		exGot[string(c.ID())] = true
	}
	for _, id := range []string{
		"lineitem(l_discount,l_quantity)",
		"lineitem(l_linenumber,l_quantity)",
		"lineitem(l_discount,l_linenumber)",
	} {
		if !exGot[id] {
			t.Errorf("exhaustive should include %s", id)
		}
	}
	if len(ExhaustiveStats(q)) <= len(cands) {
		t.Errorf("exhaustive (%d) should exceed candidate (%d) count", len(ExhaustiveStats(q)), len(cands))
	}
}

// TestMNSABuildsFewerThanCandidates: MNSA should terminate having built a
// strict subset of the candidates on a typical selective query, and the
// resulting plan must be t-optimizer-cost equivalent to the plan with ALL
// candidates built.
func TestMNSAPrunesAndPreservesQuality(t *testing.T) {
	for _, z := range []float64{0, 2} {
		db := testDB(t, z)
		sess := newSession(t, db)
		q := mustParse(t, db, `SELECT * FROM lineitem, orders
			WHERE l_orderkey = o_orderkey AND l_shipdate < DATE 8500
			AND o_totalprice > 400000 AND l_quantity > 45`)
		cfg := DefaultConfig()
		res, err := RunMNSA(context.Background(), sess, q, cfg)
		if err != nil {
			t.Fatalf("z=%v: MNSA: %v", z, err)
		}
		cands := CandidateStats(q)
		if len(res.Created) == 0 {
			t.Fatalf("z=%v: MNSA built nothing; expected some statistics for a join query", z)
		}
		if len(res.Created) >= len(cands) {
			t.Errorf("z=%v: MNSA built %d of %d candidates; expected pruning", z, len(res.Created), len(cands))
		}
		planMNSA, err := sess.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}

		// Build everything on a fresh manager and compare.
		dbAll := testDB(t, z)
		sessAll := newSession(t, dbAll)
		for _, c := range cands {
			if _, err := sessAll.Manager().Create(c.Table, c.Columns); err != nil {
				t.Fatal(err)
			}
		}
		planAll, err := sessAll.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		eq := TOptimizerCost{T: cfg.T}
		if !eq.Equivalent(planMNSA, planAll) {
			t.Errorf("z=%v: MNSA plan cost %.1f vs all-candidates cost %.1f exceeds t=%v%%",
				z, planMNSA.Cost(), planAll.Cost(), cfg.T)
		}
		t.Logf("z=%v: built %d/%d stats, %d optimizer calls, terminated by %s",
			z, len(res.Created), len(cands), res.OptimizerCalls, res.TerminatedBy)
	}
}

// TestMNSAOptimizerCallOverhead checks §4.3's overhead bound: three
// optimizer calls per created statistic-unit plus the initial optimization
// and the final (terminating) sensitivity test.
func TestMNSAOptimizerCallOverhead(t *testing.T) {
	db := testDB(t, 2)
	sess := newSession(t, db)
	q := mustParse(t, db, `SELECT * FROM lineitem WHERE l_quantity > 45 AND l_discount < 0.02`)
	res, err := RunMNSA(context.Background(), sess, q, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 1 initial + per iteration: 2 sensitivity + 1 re-optimization (the
	// last iteration has no re-optimization since it terminates).
	maxCalls := 1 + 3*res.Iterations
	if res.OptimizerCalls > maxCalls {
		t.Errorf("optimizer calls %d exceed bound %d (iterations %d)", res.OptimizerCalls, maxCalls, res.Iterations)
	}
}

// TestMNSATestsSeekOnlyMissingVariable: a variable that only the access-path
// choice reads is still missing. With lineitem(l_linenumber, l_orderkey)
// built, the two equalities are estimated together through the statistic's
// prefix density, but the index seek on l_orderkey is priced with
// l_orderkey's own selectivity, which no statistic leads with: the seek runs
// on the magic number. MNSA must test that variable at ε and 1−ε, not stop
// with no-missing-vars after the first optimization.
func TestMNSATestsSeekOnlyMissingVariable(t *testing.T) {
	db := testDB(t, 2)
	sess := newSession(t, db)
	if _, err := sess.Manager().Create("lineitem", []string{"l_linenumber", "l_orderkey"}); err != nil {
		t.Fatal(err)
	}
	q := mustParse(t, db, "SELECT * FROM lineitem WHERE l_linenumber = 2 AND l_orderkey = 5")
	p, err := sess.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Root.Op != optimizer.OpIndexSeek || p.Root.IndexCol != "l_orderkey" {
		t.Fatalf("want an index seek on l_orderkey, got\n%s", p.Format())
	}
	seekVar := -1
	for _, f := range q.Filters {
		if f.Col.Column == "l_orderkey" {
			seekVar = f.VarID
		}
	}
	if !slices.Equal(p.MissingVars, []int{seekVar}) {
		t.Fatalf("MissingVars = %v, want [%d] (the seek's variable)", p.MissingVars, seekVar)
	}
	res, err := RunMNSA(context.Background(), sess, q, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.OptimizerCalls < 3 {
		t.Errorf("MNSA made %d optimizer calls and stopped %s: the seek's variable was never tested at ε and 1−ε",
			res.OptimizerCalls, res.TerminatedBy)
	}
}

// TestMNSADDropListsNonEssential: a query whose plan never changes after the
// first few statistics should yield drop-listed statistics under MNSA/D, and
// the drop-listed set must not be maintained.
func TestMNSADDropListsNonEssential(t *testing.T) {
	db := testDB(t, 2)
	sess := newSession(t, db)
	mgr := sess.Manager()
	q := mustParse(t, db, `SELECT * FROM lineitem, orders, customer
		WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey
		AND l_quantity > 45 AND c_acctbal > 9000 AND o_totalprice > 400000`)
	cfg := DefaultConfig()
	cfg.Drop = true
	res, err := RunMNSA(context.Background(), sess, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("created %d, drop-listed %d", len(res.Created), len(res.DropListed))
	for _, id := range res.DropListed {
		st := mgr.Get(id)
		if st == nil {
			t.Errorf("drop-listed statistic %s does not exist", id)
			continue
		}
		if !st.InDropList {
			t.Errorf("statistic %s reported drop-listed but not marked", id)
		}
	}
	if got := len(mgr.Maintained()) + len(mgr.DropList()); got != len(mgr.All()) {
		t.Errorf("maintained+droplist=%d != all=%d", got, len(mgr.All()))
	}
}

// TestShrinkingSetProducesEssentialSet runs MNSA then Shrinking Set and
// verifies the Definition 1 properties of the survivor set directly against
// the full candidate set.
func TestShrinkingSetProducesEssentialSet(t *testing.T) {
	db := testDB(t, 2)
	sess := newSession(t, db)
	mgr := sess.Manager()
	q := mustParse(t, db, `SELECT * FROM lineitem, orders
		WHERE l_orderkey = o_orderkey AND l_shipdate < DATE 8300 AND o_totalprice > 500000`)

	// Build ALL candidates so Definition 1 can be checked exactly.
	cands := CandidateStats(q)
	var cIDs []stats.ID
	for _, c := range cands {
		if _, err := mgr.Create(c.Table, c.Columns); err != nil {
			t.Fatal(err)
		}
		cIDs = append(cIDs, c.ID())
	}

	eq := ExecutionTree{}
	sr, err := ShrinkingSetCtx(context.Background(), sess, []*querySelect{q}, nil, eq)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("kept %v, removed %d", sr.Kept, len(sr.Removed))
	ok, reason, err := isEssentialSet(sess, q, sr.Kept, cIDs, eq)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("shrinking-set result is not an essential set: %s", reason)
	}
}

// TestShrinkingSetWorstCaseCallBound: |S|*|W| plus baselines.
func TestShrinkingSetCallBound(t *testing.T) {
	db := testDB(t, 0)
	sess := newSession(t, db)
	q1 := mustParse(t, db, `SELECT * FROM lineitem WHERE l_quantity > 40`)
	q2 := mustParse(t, db, `SELECT * FROM orders WHERE o_totalprice < 1000`)
	for _, c := range append(CandidateStats(q1), CandidateStats(q2)...) {
		if _, err := sess.Manager().Create(c.Table, c.Columns); err != nil {
			t.Fatal(err)
		}
	}
	n := len(sess.Manager().All())
	sr, err := ShrinkingSetCtx(context.Background(), sess, []*querySelect{q1, q2}, nil, ExecutionTree{})
	if err != nil {
		t.Fatal(err)
	}
	if max := n*2 + 2; sr.OptimizerCalls > max {
		t.Errorf("optimizer calls %d exceed worst case bound %d", sr.OptimizerCalls, max)
	}
}

// TestWorkloadInvariants: what the workload driver's aggregate must
// satisfy whatever the per-query runs did — one result per query, no
// duplicate creations, every reported creation present in the manager and
// drawn from the workload's candidate space, and an optimizer call total
// equal to the per-query sum.
func TestWorkloadInvariants(t *testing.T) {
	db := testDB(t, 2)
	sess := newSession(t, db)
	cfg := DefaultConfig()
	cfg.Drop = true

	queries := tuningWorkload(t, db)
	candidates := map[stats.ID]bool{}
	for _, c := range WorkloadCandidates(queries, cfg.CandidateFn) {
		candidates[c.ID()] = true
	}

	wr, err := RunMNSAWorkloadCtx(context.Background(), sess, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(wr.PerQuery) != len(queries) {
		t.Fatalf("PerQuery has %d entries, want %d", len(wr.PerQuery), len(queries))
	}
	dup := map[stats.ID]bool{}
	for _, id := range wr.Created {
		if dup[id] {
			t.Errorf("statistic %s reported created twice", id)
		}
		dup[id] = true
		if !candidates[id] {
			t.Errorf("created statistic %s is outside the candidate space", id)
		}
		if !sess.Manager().Has(id) {
			t.Errorf("created statistic %s missing from the manager", id)
		}
	}
	if len(wr.Created) == 0 {
		t.Error("expected the run to create statistics")
	}
	calls := 0
	for _, r := range wr.PerQuery {
		if r == nil {
			t.Fatal("nil per-query result")
		}
		calls += r.OptimizerCalls
	}
	if calls != wr.OptimizerCalls {
		t.Errorf("OptimizerCalls %d != per-query sum %d", wr.OptimizerCalls, calls)
	}
}

// TestWorkloadDropListDelta: drop-list entries that predate the run must not
// be reported as drop-listed by it.
func TestWorkloadDropListDelta(t *testing.T) {
	db := testDB(t, 2)
	sess := newSession(t, db)
	mgr := sess.Manager()
	pre, err := mgr.Create("supplier", []string{"s_acctbal"})
	if err != nil {
		t.Fatal(err)
	}
	mgr.AddToDropList(pre.ID)

	cfg := DefaultConfig()
	cfg.Drop = true
	wr, err := RunMNSAWorkloadCtx(context.Background(), sess, tuningWorkload(t, db), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range wr.DropListed {
		if id == pre.ID {
			t.Errorf("pre-existing drop-list entry %s reported as new", id)
		}
	}
}

// execQueries optimizes and executes all queries, returning total cost.
func execQueries(t testing.TB, db *storage.Database, sess *optimizer.Session, queries []*querySelect) float64 {
	t.Helper()
	ex := executor.New(db)
	total := 0.0
	for _, q := range queries {
		plan, err := sess.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ex.Run(plan)
		if err != nil {
			t.Fatal(err)
		}
		total += res.Cost
	}
	return total
}

// BenchmarkMNSAQuery is the MNSA loop's layer benchmark: one single-query
// run over a two-table join, on a fresh statistics manager and session per
// iteration over the same data, so every iteration builds the same
// statistics. optimizer-calls/op and stats-created/op are fixed by the data;
// a change in either is a change in the loop's decisions, not its speed.
func BenchmarkMNSAQuery(b *testing.B) {
	db := testDB(b, 2)
	q := mustParse(b, db, "SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 45 AND o_totalprice > 400000")
	b.ReportAllocs()
	var res *Result
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sess := newSession(b, db)
		b.StartTimer()
		var err error
		if res, err = RunMNSA(context.Background(), sess, q, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.OptimizerCalls), "optimizer-calls/op")
	b.ReportMetric(float64(len(res.Created)), "stats-created/op")
}
