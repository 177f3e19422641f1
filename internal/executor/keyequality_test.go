package executor_test

import (
	"fmt"
	"slices"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/sqlparser"
	"autostats/internal/storage"
)

// fingerprints renders rows one string each, sorted, so that two operators'
// outputs compare as multisets.
func fingerprints(rows [][]catalog.Datum) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	slices.Sort(out)
	return out
}

// nestedPairs joins two tables by brute force, a pair matching when
// Datum.Compare finds every predicate's columns equal and neither NULL.
func nestedPairs(t *testing.T, db *storage.Database, left, right string, preds []query.JoinPred) []string {
	t.Helper()
	l, r := mustTable(t, db, left), mustTable(t, db, right)
	var rows [][]catalog.Datum
	l.Scan(func(_ int, lrow storage.Row) bool {
		r.Scan(func(_ int, rrow storage.Row) bool {
			for _, p := range preds {
				a, b := lrow[l.Schema.ColumnIndex(p.Left.Column)], rrow[r.Schema.ColumnIndex(p.Right.Column)]
				if a.Null || b.Null || a.Compare(b) != 0 {
					return true
				}
			}
			rows = append(rows, append(slices.Clone(lrow), rrow...))
			return true
		})
		return true
	})
	return fingerprints(rows)
}

// distinctTuples counts the tuples of cols that Datum.Compare tells apart.
func distinctTuples(t *testing.T, db *storage.Database, table string, cols []string) int {
	t.Helper()
	tuples, err := mustTable(t, db, table).MultiColumnValues(cols)
	if err != nil {
		t.Fatal(err)
	}
	cmpTuples := func(a, b []catalog.Datum) int {
		for i := range a {
			if c := a[i].Compare(b[i]); c != 0 {
				return c
			}
		}
		return 0
	}
	slices.SortFunc(tuples, cmpTuples)
	n := 0
	for i := range tuples {
		if i == 0 || cmpTuples(tuples[i-1], tuples[i]) != 0 {
			n++
		}
	}
	return n
}

// TestHashKeysAgreeWithCompare holds each hash operator to its sort-based
// twin, and both to a brute-force reference, on the keys where a textual
// hash key once disagreed with Datum.Compare: two-column string keys that
// run together when concatenated ('a\x00sb','c' against 'a','b\x00sc'), and
// a float key holding both -0 and +0. The statistics a policy creates pick
// hash or sort, so a disagreement let creating a statistic change an answer.
func TestHashKeysAgreeWithCompare(t *testing.T) {
	e := newEnv(t, 0, 0.2)
	for _, sql := range []string{
		"INSERT INTO region VALUES (90, 'a\x00sb', 'c')",
		"INSERT INTO region VALUES (91, 'a', 'b\x00sc')",
		"INSERT INTO nation VALUES (90, 'a', 91, 'b\x00sc')",
		"INSERT INTO nation VALUES (91, 'a\x00sb', 90, 'c')",
		"UPDATE supplier SET s_acctbal = -0.0 WHERE s_suppkey = 0",
		"UPDATE supplier SET s_acctbal = 0.0 WHERE s_suppkey = 1",
		"UPDATE customer SET c_acctbal = 0.0 WHERE c_custkey = 1",
	} {
		stmt, err := sqlparser.Parse(e.db.Schema, sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if res, err := e.ex.RunStatement(e.sess, stmt); err != nil || res.Affected != 1 {
			t.Fatalf("%q: affected %v, %v", sql, res, err)
		}
	}
	run := func(t *testing.T, root *optimizer.Node) []string {
		t.Helper()
		res, err := e.ex.Run(&optimizer.Plan{Root: root})
		if err != nil {
			t.Fatal(err)
		}
		return fingerprints(res.Rows)
	}

	for _, jc := range []struct {
		name, left, right string
		preds             []query.JoinPred
	}{
		{"StringPair", "nation", "region", []query.JoinPred{
			{Left: col2("nation", "n_name"), Right: col2("region", "r_name")},
			{Left: col2("nation", "n_comment"), Right: col2("region", "r_comment")},
		}},
		{"SignedZero", "supplier", "customer", []query.JoinPred{
			{Left: col2("supplier", "s_acctbal"), Right: col2("customer", "c_acctbal")},
		}},
	} {
		t.Run(jc.name+"Join", func(t *testing.T) {
			want := nestedPairs(t, e.db, jc.left, jc.right, jc.preds)
			for _, op := range []optimizer.Op{optimizer.OpHashJoin, optimizer.OpMergeJoin, optimizer.OpNestedLoopJoin} {
				root := &optimizer.Node{Op: op, Children: []*optimizer.Node{scanNode(jc.left), scanNode(jc.right)}, Joins: jc.preds}
				if got := run(t, root); !slices.Equal(got, want) {
					t.Errorf("%s: %d pairs, want %d", op, len(got), len(want))
				}
			}
		})
	}

	for _, ac := range []struct {
		name, table string
		by          []string
	}{
		{"StringPair", "region", []string{"r_name", "r_comment"}},
		{"SignedZero", "supplier", []string{"s_acctbal"}},
	} {
		t.Run(ac.name+"Aggregate", func(t *testing.T) {
			var groupBy []query.ColumnRef
			for _, c := range ac.by {
				groupBy = append(groupBy, col2(ac.table, c))
			}
			agg := func(op optimizer.Op) *optimizer.Node {
				return &optimizer.Node{
					Op: op, Children: []*optimizer.Node{scanNode(ac.table)},
					GroupBy: groupBy, Aggregates: []query.Aggregate{{Func: query.CountStar}},
				}
			}
			hash, stream := run(t, agg(optimizer.OpHashAggregate)), run(t, agg(optimizer.OpStreamAggregate))
			if !slices.Equal(hash, stream) {
				t.Errorf("hash aggregate: %d groups, stream aggregate: %d", len(hash), len(stream))
			}
			if want := distinctTuples(t, e.db, ac.table, ac.by); len(stream) != want {
				t.Errorf("stream aggregate: %d groups, want %d", len(stream), want)
			}
		})
	}
}
