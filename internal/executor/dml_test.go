package executor

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/datagen"
	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/sqlparser"
	"autostats/internal/storage"
)

// scanDML runs a DELETE or UPDATE the way the engine did before DML could
// seek: a full scan picks the rows, then the write applies to them, and the
// charge is the scan plus one unit per row written. It is the reference the
// access-path rule is held to.
func scanDML(db *storage.Database, stmt query.Statement) (*Result, error) {
	var table string
	var filters []query.Filter
	switch s := stmt.(type) {
	case *query.Delete:
		table, filters = s.Table, s.Filters
	case *query.Update:
		table, filters = s.Table, s.Filters
	default:
		return nil, fmt.Errorf("scanDML: %T is not DML", stmt)
	}
	td, err := db.Table(table)
	if err != nil {
		return nil, err
	}
	f, err := newFetcher(tableResultSet(td), filters, 0, 0)
	if err != nil {
		return nil, err
	}
	var ids []int
	td.Scan(func(id int, r storage.Row) bool {
		if f.pass(r) {
			ids = append(ids, id)
		}
		return f.err == nil
	})
	if f.err != nil {
		return nil, f.err
	}
	scan := float64(td.RowCount()) * optimizer.CostRowScan
	pick := func(storage.View) ([]int, error) { return ids, nil }
	var n int
	switch s := stmt.(type) {
	case *query.Delete:
		n, err = td.Delete(pick)
	case *query.Update:
		n, err = td.Update(pick, td.Schema.ColumnIndex(s.SetCol), s.SetVal)
	}
	return &Result{Affected: n, Cost: scan + float64(n)}, err
}

// seeks reports whether the engine would match stmt through an index. A
// Delete whose find picks no rows writes nothing; it is how a test reads a
// table through a View.
func seeks(t *testing.T, db *storage.Database, table string, filters []query.Filter) bool {
	t.Helper()
	td, err := db.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	var sought bool
	if _, err := td.Delete(func(v storage.View) ([]int, error) {
		_, sought = cheapestSeek(v, filters)
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	return sought
}

// tableState is every live row with its ID, and the row and modification
// counts.
type tableState struct {
	ids        []int
	rows       [][]catalog.Datum
	live, mods int64
}

func stateOf(td *storage.TableData) tableState {
	var st tableState
	td.Scan(func(id int, r storage.Row) bool {
		st.ids = append(st.ids, id)
		st.rows = append(st.rows, append([]catalog.Datum(nil), r...))
		return true
	})
	st.live, st.mods = int64(td.RowCount()), td.ModCounter()
	return st
}

// seekOutputs returns the output of a full-range index-seek SELECT on each
// of the table's indexes. Rows come out in index order, and equal keys in
// the order their entries were inserted, so the outputs also pin the order
// in which an UPDATE re-inserted index entries.
func seekOutputs(t *testing.T, db *storage.Database, table string) []*Result {
	t.Helper()
	var out []*Result
	for _, ix := range db.Schema.Indexes {
		if !strings.EqualFold(ix.Table, table) {
			continue
		}
		res, err := New(db).Run(&optimizer.Plan{Root: &optimizer.Node{Op: optimizer.OpIndexSeek, Table: table, IndexCol: ix.Column}})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

// dmlColumns are the columns random statements filter on and set: indexed
// ones first, then some that are not.
var dmlColumns = map[string][]string{
	"orders":   {"o_orderkey", "o_custkey", "o_orderdate", "o_totalprice", "o_shippriority"},
	"lineitem": {"l_orderkey", "l_partkey", "l_quantity", "l_linenumber"},
}

// randomDML returns a DELETE or UPDATE on orders or lineitem whose filters
// and new value are drawn from the table's live values, so that most match
// some rows. A DELETE always carries an equality, so the tables survive.
func randomDML(t *testing.T, rng *rand.Rand, db *storage.Database) string {
	t.Helper()
	table := "orders"
	if rng.Intn(2) == 0 {
		table = "lineitem"
	}
	cols := dmlColumns[table]
	td, err := db.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	value := func(col string) catalog.Datum {
		vals, err := td.ColumnValues(col)
		if err != nil || len(vals) == 0 {
			t.Fatalf("no values of %s.%s: %v", table, col, err)
		}
		return vals[rng.Intn(len(vals))]
	}
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	var where []string
	for i := 0; i < 1+rng.Intn(3); i++ {
		col := cols[rng.Intn(len(cols))]
		where = append(where, fmt.Sprintf("%s %s %s", col, ops[rng.Intn(len(ops))], value(col)))
	}
	// Half the statements bound an indexed column to a point, so that both
	// access paths are common.
	kind := rng.Intn(4)
	if kind < 2 {
		col := cols[rng.Intn(2)]
		where[0] = fmt.Sprintf("%s = %s", col, value(col))
	}
	if kind == 0 {
		return fmt.Sprintf("DELETE FROM %s WHERE %s", table, strings.Join(where, " AND "))
	}
	// Most updates set a column that is not indexed: setting key columns to
	// drawn values piles the keys up until no seek pays.
	set := cols[len(cols)-1-rng.Intn(2)]
	if rng.Intn(5) == 0 {
		set = cols[rng.Intn(len(cols))]
	}
	return fmt.Sprintf("UPDATE %s SET %s = %s WHERE %s", table, set, value(set), strings.Join(where, " AND "))
}

// TestSeekDMLMatchesScanDML runs the same UPDATE and DELETE statements on two
// copies of one generated database: on one through RunStatement, which
// seeks when cheapestSeek says so, and on the other through scanDML. Every
// statement must report the same Affected and Cost, leave the same rows,
// and leave indexes from which a following index-seek SELECT reads the same
// rows in the same order. The fixed statements come first: tombstones, Ne
// filters, an empty range, "> 1 AND = 2", and updates of indexed columns,
// one of them the column sought.
func TestSeekDMLMatchesScanDML(t *testing.T) {
	gen := func() *storage.Database {
		db, err := datagen.Generate(datagen.Config{Scale: 0.1, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	seekDB, scanDB := gen(), gen()
	ex := New(seekDB)
	stmts := []string{
		"DELETE FROM lineitem WHERE l_orderkey = 7",
		"DELETE FROM orders WHERE o_orderkey >= 20 AND o_orderkey < 25",
		"UPDATE lineitem SET l_quantity = 3 WHERE l_orderkey = 7",                          // only tombstones in range
		"UPDATE orders SET o_shippriority = 2 WHERE o_orderkey >= 18 AND o_orderkey <= 26", // some tombstones
		"UPDATE orders SET o_shippriority = 3 WHERE o_orderkey < 40 AND o_custkey <> 1",
		"DELETE FROM lineitem WHERE l_orderkey = 9 AND l_partkey <> 3",
		"UPDATE orders SET o_shippriority = 4 WHERE o_orderkey <> 5",
		"UPDATE orders SET o_shippriority = 5 WHERE o_orderkey >= 70 AND o_orderkey <= 65",
		"UPDATE orders SET o_shippriority = 6 WHERE o_orderkey > 1 AND o_orderkey = 2",
		"UPDATE lineitem SET l_quantity = 4 WHERE l_orderkey > 10 AND l_orderkey = 11",
		"UPDATE orders SET o_custkey = 1 WHERE o_orderkey >= 30 AND o_orderkey < 45",
		"UPDATE orders SET o_orderkey = 3 WHERE o_orderkey >= 50 AND o_orderkey < 56",
		"UPDATE lineitem SET l_partkey = 2 WHERE l_orderkey >= 12 AND l_orderkey <= 14",
	}
	rng := rand.New(rand.NewSource(1))
	for len(stmts) < 200 {
		stmts = append(stmts, randomDML(t, rng, seekDB))
	}
	sought := 0
	for _, sql := range stmts {
		stmt, err := sqlparser.Parse(seekDB.Schema, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var table string
		var filters []query.Filter
		switch s := stmt.(type) {
		case *query.Delete:
			table, filters = s.Table, s.Filters
		case *query.Update:
			table, filters = s.Table, s.Filters
		}
		if seeks(t, seekDB, table, filters) {
			sought++
		}
		got, err := ex.RunStatement(nil, stmt)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		want, err := scanDML(scanDB, stmt)
		if err != nil {
			t.Fatalf("%s: scan: %v", sql, err)
		}
		if got.Affected != want.Affected || got.Cost != want.Cost {
			t.Fatalf("%s: affected %d, cost %v; the scan: affected %d, cost %v", sql, got.Affected, got.Cost, want.Affected, want.Cost)
		}
		if !reflect.DeepEqual(stateOf(mustTableIn(t, seekDB, table)), stateOf(mustTableIn(t, scanDB, table))) {
			t.Fatalf("%s: the tables differ after the statement", sql)
		}
		if !reflect.DeepEqual(seekOutputs(t, seekDB, table), seekOutputs(t, scanDB, table)) {
			t.Fatalf("%s: an index-seek SELECT reads the two tables differently", sql)
		}
	}
	t.Logf("%d of %d statements sought", sought, len(stmts))
	if sought < len(stmts)/4 || sought > len(stmts)*3/4 {
		t.Errorf("%d of %d statements sought: both paths need exercising", sought, len(stmts))
	}
}

func mustTableIn(t *testing.T, db *storage.Database, name string) *storage.TableData {
	t.Helper()
	td, err := db.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return td
}
