package oracle

import (
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/sqlparser"
	"autostats/internal/storage"
)

// naiveDB builds a tiny two-table database with hand-picked rows so every
// expected result below can be computed by eye. NULLs are planted in both
// a join key and an aggregated column to pin the NULL semantics the naive
// evaluator must share with the real executor.
func naiveDB(t *testing.T) *storage.Database {
	t.Helper()
	schema := catalog.NewSchema()
	dept := catalog.NewTable("dept",
		catalog.Column{Name: "d_id", Type: catalog.Int},
		catalog.Column{Name: "d_name", Type: catalog.String},
	)
	dept.PrimaryKey = "d_id"
	emp := catalog.NewTable("emp",
		catalog.Column{Name: "e_id", Type: catalog.Int},
		catalog.Column{Name: "e_dept", Type: catalog.Int},
		catalog.Column{Name: "e_salary", Type: catalog.Float},
	)
	emp.PrimaryKey = "e_id"
	if err := schema.AddTable(dept); err != nil {
		t.Fatal(err)
	}
	if err := schema.AddTable(emp); err != nil {
		t.Fatal(err)
	}
	if err := schema.AddForeignKey(catalog.ForeignKey{Table: "emp", Column: "e_dept", RefTable: "dept", RefColumn: "d_id"}); err != nil {
		t.Fatal(err)
	}
	db, err := storage.NewDatabase("naive_test", schema)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := db.Table("dept")
	if err != nil {
		t.Fatal(err)
	}
	if err := dt.BulkLoad([]storage.Row{
		{catalog.NewInt(1), catalog.NewString("eng")},
		{catalog.NewInt(2), catalog.NewString("ops")},
		{catalog.NewInt(3), catalog.NewString("hr")},
	}); err != nil {
		t.Fatal(err)
	}
	et, err := db.Table("emp")
	if err != nil {
		t.Fatal(err)
	}
	if err := et.BulkLoad([]storage.Row{
		{catalog.NewInt(10), catalog.NewInt(1), catalog.NewFloat(100)},
		{catalog.NewInt(11), catalog.NewInt(1), catalog.NewFloat(200)},
		{catalog.NewInt(12), catalog.NewInt(2), catalog.NewFloat(50)},
		{catalog.NewInt(13), catalog.NewNull(catalog.Int), catalog.NewFloat(999)}, // NULL join key: joins to nothing
		{catalog.NewInt(14), catalog.NewInt(1), catalog.NewNull(catalog.Float)},   // NULL salary: skipped by aggregates
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

func naiveRun(t *testing.T, db *storage.Database, sql string) *NaiveResult {
	t.Helper()
	q, err := sqlparser.ParseSelect(db.Schema, sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	res, err := NaiveExecute(db, q, 0)
	if err != nil {
		t.Fatalf("naive %q: %v", sql, err)
	}
	return res
}

func cell(t *testing.T, res *NaiveResult, row int, col string) catalog.Datum {
	t.Helper()
	pos, ok := res.Cols[col]
	if !ok {
		t.Fatalf("result has no column %q (have %v)", col, res.Cols)
	}
	return res.Rows[row][pos]
}

func TestNaiveFilterAndNullComparisons(t *testing.T) {
	db := naiveDB(t)
	// e_dept > 0 is FALSE for the NULL join key (SQL three-valued logic),
	// so exactly 4 of the 5 rows qualify.
	res := naiveRun(t, db, "SELECT * FROM emp WHERE emp.e_dept > 0")
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.Rows))
	}
	// A filter on the nullable float keeps only non-NULL matches.
	res = naiveRun(t, db, "SELECT * FROM emp WHERE emp.e_salary >= 100")
	if len(res.Rows) != 3 { // 100, 200, 999
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
}

func TestNaiveJoinDropsNullKeys(t *testing.T) {
	db := naiveDB(t)
	res := naiveRun(t, db, "SELECT * FROM emp, dept WHERE emp.e_dept = dept.d_id")
	// emps 10,11,14 join dept 1; emp 12 joins dept 2; emp 13 (NULL) drops.
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.Rows))
	}
	// Both tables' columns must be present in the output.
	for _, col := range []string{"emp.e_id", "emp.e_salary", "dept.d_id", "dept.d_name"} {
		if _, ok := res.Cols[col]; !ok {
			t.Errorf("join output missing column %q", col)
		}
	}
	res = naiveRun(t, db, "SELECT * FROM emp, dept WHERE emp.e_dept = dept.d_id AND dept.d_name = 'ops'")
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(res.Rows))
	}
	if got := cell(t, res, 0, "emp.e_id"); got.I != 12 {
		t.Errorf("ops employee = %v, want 12", got)
	}
}

func TestNaiveScalarAggregates(t *testing.T) {
	db := naiveDB(t)
	res := naiveRun(t, db, "SELECT COUNT(*), COUNT(emp.e_salary), SUM(emp.e_salary), AVG(emp.e_salary), MIN(emp.e_salary), MAX(emp.e_salary) FROM emp")
	if len(res.Rows) != 1 {
		t.Fatalf("scalar aggregate returned %d rows, want 1", len(res.Rows))
	}
	if got := cell(t, res, 0, "count(*)"); got.I != 5 {
		t.Errorf("COUNT(*) = %v, want 5", got)
	}
	// COUNT(col), SUM, AVG, MIN, MAX all skip the NULL salary.
	if got := cell(t, res, 0, "count(emp.e_salary)"); got.I != 4 {
		t.Errorf("COUNT(e_salary) = %v, want 4", got)
	}
	if got := cell(t, res, 0, "sum(emp.e_salary)"); got.F != 100+200+50+999 {
		t.Errorf("SUM = %v, want 1349", got)
	}
	if got := cell(t, res, 0, "avg(emp.e_salary)"); got.F != 1349.0/4 {
		t.Errorf("AVG = %v, want 337.25", got)
	}
	if got := cell(t, res, 0, "min(emp.e_salary)"); got.F != 50 {
		t.Errorf("MIN = %v, want 50", got)
	}
	if got := cell(t, res, 0, "max(emp.e_salary)"); got.F != 999 {
		t.Errorf("MAX = %v, want 999", got)
	}
}

func TestNaiveScalarAggregateOverEmptyInput(t *testing.T) {
	db := naiveDB(t)
	res := naiveRun(t, db, "SELECT COUNT(*), SUM(emp.e_salary) FROM emp WHERE emp.e_id > 1000")
	if len(res.Rows) != 1 {
		t.Fatalf("scalar aggregate over empty input returned %d rows, want 1", len(res.Rows))
	}
	if got := cell(t, res, 0, "count(*)"); got.Null || got.I != 0 {
		t.Errorf("COUNT(*) over empty = %v, want 0", got)
	}
	if got := cell(t, res, 0, "sum(emp.e_salary)"); !got.Null {
		t.Errorf("SUM over empty = %v, want NULL", got)
	}
}

func TestNaiveGroupByAndHaving(t *testing.T) {
	db := naiveDB(t)
	res := naiveRun(t, db, "SELECT emp.e_dept, COUNT(*), SUM(emp.e_salary) FROM emp GROUP BY emp.e_dept")
	// Groups: dept 1 (3 rows, sum 300 with the NULL skipped), dept 2
	// (1 row, sum 50), NULL dept (1 row, sum 999).
	if len(res.Rows) != 3 {
		t.Fatalf("got %d groups, want 3", len(res.Rows))
	}
	byDept := map[string][2]float64{}
	for i := range res.Rows {
		k := cell(t, res, i, "emp.e_dept").String()
		byDept[k] = [2]float64{float64(cell(t, res, i, "count(*)").I), cell(t, res, i, "sum(emp.e_salary)").F}
	}
	want := map[string][2]float64{"1": {3, 300}, "2": {1, 50}, "NULL": {1, 999}}
	for k, w := range want {
		got, ok := byDept[k]
		if !ok {
			t.Errorf("missing group %s (have %v)", k, byDept)
			continue
		}
		if got != w {
			t.Errorf("group %s = %v, want %v", k, got, w)
		}
	}

	// HAVING COUNT(*) > 1 keeps only dept 1.
	res = naiveRun(t, db, "SELECT emp.e_dept, COUNT(*) FROM emp GROUP BY emp.e_dept HAVING COUNT(*) > 1")
	if len(res.Rows) != 1 {
		t.Fatalf("HAVING kept %d groups, want 1", len(res.Rows))
	}
	if got := cell(t, res, 0, "emp.e_dept"); got.I != 1 {
		t.Errorf("surviving group = %v, want dept 1", got)
	}
}

func TestNaiveJoinedGroupBy(t *testing.T) {
	db := naiveDB(t)
	res := naiveRun(t, db, "SELECT dept.d_name, COUNT(*) FROM emp, dept WHERE emp.e_dept = dept.d_id GROUP BY dept.d_name")
	if len(res.Rows) != 2 { // eng (3), ops (1); hr has no employees, NULL key drops
		t.Fatalf("got %d groups, want 2", len(res.Rows))
	}
	counts := map[string]int64{}
	for i := range res.Rows {
		counts[cell(t, res, i, "dept.d_name").S] = cell(t, res, i, "count(*)").I
	}
	if counts["eng"] != 3 || counts["ops"] != 1 {
		t.Errorf("group counts = %v, want eng:3 ops:1", counts)
	}
}

func TestNaiveRowBudget(t *testing.T) {
	db := naiveDB(t)
	q, err := sqlparser.ParseSelect(db.Schema, "SELECT * FROM emp, dept WHERE emp.e_dept = dept.d_id")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NaiveExecute(db, q, 2); err != errBudget {
		t.Fatalf("budget of 2 rows: err = %v, want errBudget", err)
	}
}

// TestNaiveMatchesExecutorOnHandQueries closes the loop on the tiny
// database: for each hand query, the real optimize+execute pipeline must
// agree with the naive evaluator under compareResults — the exact check
// the differential sweep applies at scale.
func TestNaiveMatchesExecutorOnHandQueries(t *testing.T) {
	h, err := New(Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT * FROM orders WHERE orders.o_custkey > 3",
		"SELECT * FROM orders, customer WHERE orders.o_custkey = customer.c_custkey AND customer.c_acctbal >= 0",
		"SELECT orders.o_custkey, COUNT(*), AVG(orders.o_totalprice) FROM orders GROUP BY orders.o_custkey HAVING COUNT(*) > 1",
		"SELECT MIN(lineitem.l_extendedprice), MAX(lineitem.l_extendedprice) FROM lineitem WHERE lineitem.l_quantity <> 1",
		"SELECT * FROM region ORDER BY region.r_name",
	} {
		q, err := sqlparser.ParseSelect(h.DB.Schema, sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		f, err := h.checkQuery(q)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if f != nil {
			t.Errorf("hand query disagreement: %s", *f)
		}
	}
}

// TestEncodeDatumDistinguishesValues guards the multiset encoding the
// comparisons rely on: distinct datums must encode distinctly, including
// the classic concatenation-ambiguity and NULL-vs-zero traps.
func TestEncodeDatumDistinguishesValues(t *testing.T) {
	pairs := [][2]catalog.Datum{
		{catalog.NewInt(0), catalog.NewNull(catalog.Int)},
		{catalog.NewFloat(0), catalog.NewInt(0)},
		{catalog.NewString("ab"), catalog.NewString("a")},
		{catalog.NewInt(12), catalog.NewInt(1)},
		{catalog.NewFloat(1), catalog.NewFloat(-1)},
	}
	enc := func(d catalog.Datum) string {
		return encodeDatums([]catalog.Datum{d}, []int{0})
	}
	for _, p := range pairs {
		if enc(p[0]) == enc(p[1]) {
			t.Errorf("datums %v and %v encode identically (%q)", p[0], p[1], enc(p[0]))
		}
	}
	// Row-level ambiguity: ["a;", "b"] vs ["a", ";b"] must differ.
	a := encodeDatums([]catalog.Datum{catalog.NewString("a;"), catalog.NewString("b")}, []int{0, 1})
	b := encodeDatums([]catalog.Datum{catalog.NewString("a"), catalog.NewString(";b")}, []int{0, 1})
	if a == b {
		t.Errorf("row encodings collide: %q", a)
	}
}

// TestCompareResultsDetectsDifferences feeds compareResults deliberately
// wrong "optimized" outputs and requires a non-empty diagnosis, proving
// the oracle can actually fail.
func TestCompareResultsDetectsDifferences(t *testing.T) {
	h, err := New(Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	q, err := sqlparser.ParseSelect(h.DB.Schema, "SELECT * FROM region WHERE region.r_regionkey > 1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := h.Sess.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Exec.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NaiveExecute(h.DB, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := compareResults(q, got, want); d != "" {
		t.Fatalf("sanity: matching results reported diff %q", d)
	}
	// Drop a row from the reference: row-count mismatch.
	truncated := &NaiveResult{Cols: want.Cols, Rows: want.Rows[1:]}
	if d := compareResults(q, got, truncated); d == "" {
		t.Error("row-count mismatch not detected")
	}
	// Corrupt one cell: content mismatch at equal cardinality.
	corrupt := &NaiveResult{Cols: want.Cols, Rows: make([][]catalog.Datum, len(want.Rows))}
	for i, r := range want.Rows {
		corrupt.Rows[i] = append([]catalog.Datum(nil), r...)
	}
	corrupt.Rows[0][want.Cols["region.r_regionkey"]] = catalog.NewInt(-777)
	if d := compareResults(q, got, corrupt); d == "" {
		t.Error("cell corruption not detected")
	}
}

// TestCompareResultsChecksOrdering ensures the ORDER BY verification
// rejects an out-of-order optimized result.
func TestCompareResultsChecksOrdering(t *testing.T) {
	h, err := New(Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	q, err := sqlparser.ParseSelect(h.DB.Schema, "SELECT * FROM region ORDER BY region.r_regionkey")
	if err != nil {
		t.Fatal(err)
	}
	p, err := h.Sess.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Exec.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) < 2 {
		t.Fatal("need at least two rows to scramble")
	}
	want, err := NaiveExecute(h.DB, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := compareResults(q, got, want); d != "" {
		t.Fatalf("sanity: ordered result reported diff %q", d)
	}
	got.Rows[0], got.Rows[len(got.Rows)-1] = got.Rows[len(got.Rows)-1], got.Rows[0]
	if d := compareResults(q, got, want); d == "" {
		t.Error("ORDER BY violation not detected")
	}
}
