package optimizer

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/datagen"
	"autostats/internal/histogram"
	"autostats/internal/query"
	"autostats/internal/sqlparser"
	"autostats/internal/stats"
	"autostats/internal/storage"
	"autostats/internal/workload"
)

// enumSession is a cache-less session over a TPC-D database of the
// benchmark's skew at a scale small enough to optimize thousands of times.
func enumSession(t testing.TB) (*Session, *storage.Database) {
	t.Helper()
	db, err := datagen.Generate(datagen.Config{Scale: 0.05, Z: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return NewSession(stats.NewManager(db, histogram.MaxDiff, 0)), db
}

func mustParse(t testing.TB, db *storage.Database, sql string) *query.Select {
	t.Helper()
	q, err := sqlparser.ParseSelect(db.Schema, sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return q
}

// tuneShapes returns the tune_offline workload's statements over db: the
// Rags-like complex queries from perfbench's template seed plus TPCD-ORIG,
// constants instantiated from the data.
func tuneShapes(t testing.TB, db *storage.Database, queries int) []*query.Select {
	t.Helper()
	cfg, err := workload.ConfigByName(fmt.Sprintf("U0-C-%d", queries), 20000229)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := workload.TPCDOrig(db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	in := workload.NewInstantiator(db, 1)
	var out []*query.Select
	for _, q := range append(w.Queries(), orig.Queries()...) {
		out = append(out, in.Instantiate(q))
	}
	return out
}

// buildCandidateStats creates every statistic §7.1 proposes for q — the set
// core.CandidateStats lists, restated because core imports this package:
// a single-column statistic per filter, join and grouping column, and per
// table one multi-column statistic on each of those three roles' columns
// (sorted) when the role has two or more.
func buildCandidateStats(t testing.TB, mgr *stats.Manager, q *query.Select) {
	t.Helper()
	roles := [3]map[string][]string{{}, {}, {}}
	add := func(role int, c query.ColumnRef) {
		tbl, col := strings.ToLower(c.Table), strings.ToLower(c.Column)
		for _, have := range roles[role][tbl] {
			if have == col {
				return
			}
		}
		roles[role][tbl] = append(roles[role][tbl], col)
	}
	for _, f := range q.Filters {
		add(0, f.Col)
	}
	for _, j := range q.Joins {
		add(1, j.Left)
		add(1, j.Right)
	}
	for _, g := range q.GroupingColumns() {
		add(2, g)
	}
	ensure := func(tbl string, cols []string) {
		if _, _, err := mgr.Ensure(tbl, cols); err != nil {
			t.Fatalf("statistic %s%v: %v", tbl, cols, err)
		}
	}
	for _, role := range roles {
		for tbl, cols := range role {
			sort.Strings(cols)
			for _, c := range cols {
				ensure(tbl, []string{c})
			}
			if len(cols) >= 2 {
				ensure(tbl, cols)
			}
		}
	}
}

// diffNodes reports the first difference between two plan trees, comparing
// every estimate by its bits.
func diffNodes(got, want *Node, path string) string {
	switch {
	case got.Op != want.Op:
		return fmt.Sprintf("%s: op %s, reference %s", path, got.Op, want.Op)
	case math.Float64bits(got.Cost) != math.Float64bits(want.Cost):
		return fmt.Sprintf("%s (%s): cost %v, reference %v", path, got.Op, got.Cost, want.Cost)
	case math.Float64bits(got.EstRows) != math.Float64bits(want.EstRows):
		return fmt.Sprintf("%s (%s): rows %v, reference %v", path, got.Op, got.EstRows, want.EstRows)
	case got.Table != want.Table || got.Index != want.Index || got.IndexCol != want.IndexCol:
		return fmt.Sprintf("%s (%s): table/index %q %q %q, reference %q %q %q", path, got.Op,
			got.Table, got.Index, got.IndexCol, want.Table, want.Index, want.IndexCol)
	case fmt.Sprint(got.Joins) != fmt.Sprint(want.Joins) || (got.Joins == nil) != (want.Joins == nil):
		return fmt.Sprintf("%s (%s): joins %v, reference %v", path, got.Op, got.Joins, want.Joins)
	case len(got.Children) != len(want.Children):
		return fmt.Sprintf("%s (%s): %d children, reference %d", path, got.Op, len(got.Children), len(want.Children))
	}
	for i := range got.Children {
		if d := diffNodes(got.Children[i], want.Children[i], fmt.Sprintf("%s/%d", path, i)); d != "" {
			return d
		}
	}
	return ""
}

// checkAgainstReference optimizes q with the enumerator and with the
// reference under the session's current statistics and the what-if
// configuration w, and fails on any difference.
func checkAgainstReference(t *testing.T, sess *Session, q *query.Select, w WhatIf, label string) {
	t.Helper()
	want, werr := sess.referenceOptimize(q, w)
	got, gerr := sess.optimize(q, w)
	if werr != nil || gerr != nil {
		if fmt.Sprint(werr) != fmt.Sprint(gerr) {
			t.Errorf("%s: %s\n  error %v, reference %v", label, q.SQL(), gerr, werr)
		}
		return
	}
	var diff string
	switch {
	case got.Format() != want.Format():
		diff = "Format:\n" + got.Format() + "reference:\n" + want.Format()
	case fmt.Sprint(got.UsedStats) != fmt.Sprint(want.UsedStats):
		diff = fmt.Sprintf("UsedStats %v, reference %v", got.UsedStats, want.UsedStats)
	case fmt.Sprint(got.MissingVars) != fmt.Sprint(want.MissingVars):
		diff = fmt.Sprintf("MissingVars %v, reference %v", got.MissingVars, want.MissingVars)
	default:
		diff = diffNodes(got.Root, want.Root, "root")
	}
	if diff != "" {
		t.Errorf("%s: %s\n  %s", label, q.SQL(), diff)
	}
}

// checkExtremes repeats the comparison with every variable still on a magic
// number under hide pinned to ε and then to 1−ε, the two plans MNSA asks for.
func checkExtremes(t *testing.T, sess *Session, q *query.Select, hide []stats.ID, label string) {
	t.Helper()
	p, err := sess.optimize(q, WhatIf{Hide: hide})
	if err != nil {
		return // checkAgainstReference has compared the error
	}
	for _, eps := range []float64{0.0005, 1 - 0.0005} {
		ov := make(map[int]float64, len(p.MissingVars))
		for _, v := range p.MissingVars {
			ov[v] = eps
		}
		checkAgainstReference(t, sess, q, WhatIf{Hide: hide, Overrides: ov}, fmt.Sprintf("%s, missing pinned to %g", label, eps))
	}
}

// TestEnumeratorMatchesReference: the bitmask-table enumerator returns the
// plan the node-per-candidate reference returns — tree, predicates, indexes
// and the bits of every cost and cardinality — over the tune_offline shapes
// under the statistics states MNSA and Shrinking Set put the optimizer in.
func TestEnumeratorMatchesReference(t *testing.T) {
	sess, db := enumSession(t)
	queries := 60
	if testing.Short() {
		queries = 15
	}
	qs := tuneShapes(t, db, queries)
	for _, sql := range []string{
		"SELECT * FROM lineitem WHERE l_quantity < 10",
		// disconnected FROM lists: all of it, and one table of three
		"SELECT * FROM region, part WHERE p_size = 3",
		"SELECT * FROM customer, region, orders WHERE c_custkey = o_custkey AND r_name = 'ASIA'",
		// two predicates between one pair, alone and inside a larger join
		"SELECT * FROM lineitem, partsupp WHERE l_partkey = ps_partkey AND l_suppkey = ps_suppkey",
		"SELECT * FROM partsupp, part, lineitem, supplier WHERE ps_suppkey = l_suppkey AND p_partkey = ps_partkey AND s_suppkey = ps_suppkey AND ps_partkey = l_partkey AND s_acctbal > 100",
		// no index on either join column
		"SELECT * FROM partsupp, lineitem WHERE ps_suppkey = l_suppkey",
		// inputs estimated below one row: the nested-loop outer clamp
		"SELECT * FROM region, nation, customer WHERE r_regionkey = n_regionkey AND n_nationkey = c_nationkey AND r_name = 'ASIA' AND r_regionkey = 2 AND n_name = 'PERU'",
		eightTableJoin,
	} {
		qs = append(qs, mustParse(t, db, sql))
	}
	checkOneRowTables(t)

	for _, q := range qs {
		checkAgainstReference(t, sess, q, WhatIf{}, "no statistics")
		checkExtremes(t, sess, q, nil, "no statistics")
	}

	for _, q := range qs {
		buildCandidateStats(t, sess.Manager(), q)
	}
	for _, q := range qs {
		checkAgainstReference(t, sess, q, WhatIf{}, "every candidate statistic")
		full, err := sess.optimize(q, WhatIf{})
		if err != nil {
			t.Fatal(err)
		}
		// Shrinking Set's probe: one statistic hidden. Three per statement
		// keep the run short; the hidden one's variables go missing, so the
		// extremes are probed here with statistics and magic numbers mixed.
		used := full.UsedStats
		for _, i := range []int{0, len(used) / 2, len(used) - 1} {
			if i < 0 || i >= len(used) || (i > 0 && used[i] == used[i-1]) {
				continue
			}
			hide := []stats.ID{used[i]}
			label := fmt.Sprintf("%s ignored", used[i])
			checkAgainstReference(t, sess, q, WhatIf{Hide: hide}, label)
			checkExtremes(t, sess, q, hide, label)
		}
	}
}

// eightTableJoin joins every TPC-D table along its foreign keys, the
// composite lineitem–partsupp key included: the widest statement the
// workloads produce and the one the miss path's cost is quoted on.
const eightTableJoin = "SELECT * FROM region, nation, supplier, customer, orders, lineitem, part, partsupp " +
	"WHERE n_regionkey = r_regionkey AND s_nationkey = n_nationkey AND c_nationkey = n_nationkey " +
	"AND o_custkey = c_custkey AND l_orderkey = o_orderkey AND l_partkey = p_partkey AND l_suppkey = s_suppkey " +
	"AND ps_partkey = p_partkey AND ps_suppkey = s_suppkey AND l_partkey = ps_partkey AND l_suppkey = ps_suppkey " +
	"AND o_orderdate < DATE 8840 AND c_acctbal > 0 AND r_name = 'ASIA'"

// checkOneRowTables compares the enumerators on a database whose tables hold
// one row each, one of them indexed: every input cardinality is at or below
// one, where the nested-loop outer clamp and the cardinality floor decide.
func checkOneRowTables(t *testing.T) {
	t.Helper()
	schema := catalog.NewSchema()
	for _, name := range []string{"one", "uno", "eins"} {
		if err := schema.AddTable(catalog.NewTable(name,
			catalog.Column{Name: name + "_k", Type: catalog.Int},
			catalog.Column{Name: name + "_v", Type: catalog.Int},
		)); err != nil {
			t.Fatal(err)
		}
	}
	if err := schema.AddIndex(catalog.Index{Name: "ix_uno_k", Table: "uno", Column: "uno_k"}); err != nil {
		t.Fatal(err)
	}
	db, err := storage.NewDatabase("ones", schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"one", "uno", "eins"} {
		td, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := td.Insert(storage.Row{catalog.NewInt(1), catalog.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
	}
	sess := NewSession(stats.NewManager(db, histogram.MaxDiff, 0))
	for _, sql := range []string{
		"SELECT * FROM one, uno WHERE one_k = uno_k",
		"SELECT * FROM one, uno, eins WHERE one_k = uno_k AND uno_v = eins_v AND one_v = 1",
		"SELECT * FROM eins, one, uno WHERE one_k = uno_k AND eins_v = 1",
	} {
		q := mustParse(t, db, sql)
		checkAgainstReference(t, sess, q, WhatIf{}, "one-row tables")
		checkExtremes(t, sess, q, nil, "one-row tables")
	}
}

// TestOptimizeMissAllocsBounded: a plan-cache miss on the 8-table join
// allocates per table and per join group, not per candidate plan (73 250
// mallocs while the enumerator built a node for every candidate).
func TestOptimizeMissAllocsBounded(t *testing.T) {
	sess, db := enumSession(t)
	q := mustParse(t, db, eightTableJoin)
	check := func(label string) {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := sess.Optimize(q); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per 8-table miss", label, allocs)
		if allocs > 150 {
			t.Errorf("%s: %.0f allocs per 8-table miss, want <= 150", label, allocs)
		}
	}
	check("no statistics")
	buildCandidateStats(t, sess.Manager(), q)
	check("every candidate statistic")
}

// BenchmarkOptimizeMiss measures one optimization on a session without a
// plan cache — the path MNSA's and Shrinking Set's what-if probes take — by
// join width, with no statistics (every variable on a magic number) and with
// every candidate statistic built (every variable estimated).
func BenchmarkOptimizeMiss(b *testing.B) {
	for _, w := range []struct {
		name, sql string
	}{
		{"2tables", "SELECT * FROM orders, lineitem WHERE l_orderkey = o_orderkey AND o_orderdate < DATE 8840 AND l_quantity < 10"},
		{"5tables", "SELECT * FROM customer, orders, lineitem, supplier, nation WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_suppkey = s_suppkey AND s_nationkey = n_nationkey AND c_acctbal > 0"},
		{"8tables", eightTableJoin},
	} {
		for _, withStats := range []bool{false, true} {
			name := w.name + "/nostats"
			if withStats {
				name = w.name + "/allstats"
			}
			b.Run(name, func(b *testing.B) {
				sess, db := enumSession(b)
				q := mustParse(b, db, w.sql)
				if withStats {
					buildCandidateStats(b, sess.Manager(), q)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sess.Optimize(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
