package sqlparser

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/datagen"
	"autostats/internal/query"
	"autostats/internal/storage"
)

// tpcd is the smallest generated TPC-D database; the tests parse against its
// schema.
var tpcd = sync.OnceValues(func() (*storage.Database, error) {
	return datagen.Generate(datagen.Config{Scale: 0.001})
})

func schema(t testing.TB) *catalog.Schema {
	t.Helper()
	db, err := tpcd()
	if err != nil {
		t.Fatal(err)
	}
	return db.Schema
}

func parseSel(t *testing.T, sql string) *query.Select {
	t.Helper()
	q, err := ParseSelect(schema(t), sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return q
}

func TestParseSimpleSelect(t *testing.T) {
	q := parseSel(t, "SELECT * FROM lineitem WHERE l_quantity < 10")
	if len(q.Tables) != 1 || q.Tables[0] != "lineitem" {
		t.Errorf("tables = %v", q.Tables)
	}
	if len(q.Filters) != 1 || q.Filters[0].Op != query.Lt || q.Filters[0].Col.Column != "l_quantity" {
		t.Errorf("filters = %v", q.Filters)
	}
	if q.Filters[0].Val.T != catalog.Float {
		t.Errorf("literal should coerce to the column type Float, got %v", q.Filters[0].Val.T)
	}
}

func TestParseJoinAndAliases(t *testing.T) {
	q := parseSel(t, "SELECT o.o_orderkey FROM orders o, lineitem l WHERE l.l_orderkey = o.o_orderkey AND o.o_totalprice > 100")
	if len(q.Joins) != 1 {
		t.Fatalf("joins = %v", q.Joins)
	}
	j := q.Joins[0]
	if j.Left.Table != "lineitem" || j.Right.Table != "orders" {
		t.Errorf("join sides = %v", j)
	}
	if len(q.Projection) != 1 || q.Projection[0].Table != "orders" {
		t.Errorf("projection = %v", q.Projection)
	}
}

func TestParseUnqualifiedResolution(t *testing.T) {
	q := parseSel(t, "SELECT * FROM orders, customer WHERE o_custkey = c_custkey AND c_acctbal > 0")
	if len(q.Joins) != 1 || q.Joins[0].Left.Table != "orders" {
		t.Errorf("joins = %v", q.Joins)
	}
	if q.Filters[0].Col.Table != "customer" {
		t.Errorf("filter resolved to %v", q.Filters[0].Col)
	}
}

func TestParseAmbiguousColumn(t *testing.T) {
	// l_partkey exists in lineitem only, but comment columns collide? Use a
	// genuinely ambiguous name by joining two tables that share none —
	// TPC-D column names are prefixed, so craft ambiguity via a small
	// schema instead.
	s := catalog.NewSchema()
	_ = s.AddTable(catalog.NewTable("a", catalog.Column{Name: "id", Type: catalog.Int}, catalog.Column{Name: "ka", Type: catalog.Int}))
	_ = s.AddTable(catalog.NewTable("b", catalog.Column{Name: "id", Type: catalog.Int}, catalog.Column{Name: "kb", Type: catalog.Int}))
	if _, err := Parse(s, "SELECT * FROM a, b WHERE id = 1 AND ka = kb"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("expected ambiguity error, got %v", err)
	}
	if _, err := Parse(s, "SELECT * FROM a, b WHERE a.id = 1 AND ka = kb"); err != nil {
		t.Errorf("qualified reference should parse: %v", err)
	}
}

func TestParseBetweenDesugars(t *testing.T) {
	q := parseSel(t, "SELECT * FROM lineitem WHERE l_discount BETWEEN 0.05 AND 0.07")
	if len(q.Filters) != 2 {
		t.Fatalf("filters = %v", q.Filters)
	}
	if q.Filters[0].Op != query.Ge || q.Filters[1].Op != query.Le {
		t.Errorf("BETWEEN ops = %v %v", q.Filters[0].Op, q.Filters[1].Op)
	}
}

func TestParseGroupOrderDistinct(t *testing.T) {
	q := parseSel(t, "SELECT DISTINCT l_returnflag FROM lineitem")
	if !q.Distinct || q.GroupVarID < 0 {
		t.Error("DISTINCT not recognized")
	}
	q = parseSel(t, "SELECT l_returnflag FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag")
	if len(q.GroupBy) != 1 || len(q.OrderBy) != 1 {
		t.Errorf("group/order = %v / %v", q.GroupBy, q.OrderBy)
	}
}

func TestParseDateAndStringLiterals(t *testing.T) {
	q := parseSel(t, "SELECT * FROM orders WHERE o_orderdate < DATE 9000 AND o_orderpriority = '1-URGENT'")
	if q.Filters[0].Val.T != catalog.Date || q.Filters[0].Val.I != 9000 {
		t.Errorf("date literal = %v", q.Filters[0].Val)
	}
	if q.Filters[1].Val.S != "1-URGENT" {
		t.Errorf("string literal = %v", q.Filters[1].Val)
	}
}

func TestParseEscapedQuote(t *testing.T) {
	s := catalog.NewSchema()
	_ = s.AddTable(catalog.NewTable("t", catalog.Column{Name: "s", Type: catalog.String}))
	q, err := ParseSelect(s, "SELECT * FROM t WHERE s = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if q.Filters[0].Val.S != "it's" {
		t.Errorf("escaped quote = %q", q.Filters[0].Val.S)
	}
}

func TestParseIntLiteralCoercions(t *testing.T) {
	// Int literal against a float column becomes Float.
	q := parseSel(t, "SELECT * FROM lineitem WHERE l_quantity > 10")
	if q.Filters[0].Val.T != catalog.Float || q.Filters[0].Val.F != 10 {
		t.Errorf("coercion to float: %v", q.Filters[0].Val)
	}
	// Bare int against a date column becomes Date.
	q = parseSel(t, "SELECT * FROM orders WHERE o_orderdate >= 8400")
	if q.Filters[0].Val.T != catalog.Date {
		t.Errorf("coercion to date: %v", q.Filters[0].Val)
	}
}

func TestParseDML(t *testing.T) {
	s := schema(t)
	stmt, err := Parse(s, "INSERT INTO region VALUES (9, 'NOWHERE', 'c')")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*query.Insert)
	if ins.Table != "region" || len(ins.Values) != 3 || ins.Values[0].I != 9 {
		t.Errorf("insert = %+v", ins)
	}
	stmt, err = Parse(s, "DELETE FROM region WHERE r_regionkey = 9")
	if err != nil {
		t.Fatal(err)
	}
	del := stmt.(*query.Delete)
	if del.Table != "region" || len(del.Filters) != 1 {
		t.Errorf("delete = %+v", del)
	}
	stmt, err = Parse(s, "UPDATE region SET r_name = 'X' WHERE r_regionkey = 2")
	if err != nil {
		t.Fatal(err)
	}
	upd := stmt.(*query.Update)
	if upd.SetCol != "r_name" || upd.SetVal.S != "X" {
		t.Errorf("update = %+v", upd)
	}
}

// Identifiers are case-insensitive: each statement form parses to the same
// AST, with the catalog's lower-case names, whatever case its keywords,
// tables, aliases, qualifiers and columns are written in. String literals
// keep their case, so the statements below write theirs in upper case.
func TestParseFoldsIdentifierCase(t *testing.T) {
	s := schema(t)
	for _, sql := range []string{
		"select o.o_orderstatus, count(*) from orders o, lineitem where o.o_orderkey = l_orderkey and l_quantity < 10 group by o.o_orderstatus having count(*) > 1",
		"select distinct l.l_shipmode, l_linenumber from lineitem l where l.l_shipdate between date 100 and date 900 order by l.l_shipmode, l_linenumber",
		"select sum(l_extendedprice), max(l.l_discount) from lineitem l where l_shipmode = 'AIR'",
		"insert into region values (9, 'NOWHERE', 'NONE')",
		"update orders set o_totalprice = null where o_orderkey >= 10 and orders.o_orderkey < 20",
		"delete from lineitem where l_orderkey = 7 and lineitem.l_quantity <> 3",
	} {
		lower, err := Parse(s, sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		upperSQL := strings.ToUpper(sql)
		upper, err := Parse(s, upperSQL)
		if err != nil {
			t.Fatalf("parse %q: %v", upperSQL, err)
		}
		if !reflect.DeepEqual(lower, upper) {
			t.Errorf("%q and its upper-case form parse differently:\n%#v\n%#v", sql, lower, upper)
		}
	}
}

func TestParseInsertArityErrors(t *testing.T) {
	s := schema(t)
	if _, err := Parse(s, "INSERT INTO region VALUES (1, 'A')"); err == nil {
		t.Error("expected too-few-values error")
	}
	if _, err := Parse(s, "INSERT INTO region VALUES (1, 'A', 'c', 4)"); err == nil {
		t.Error("expected too-many-values error")
	}
}

func TestParseErrors(t *testing.T) {
	s := schema(t)
	for _, bad := range []string{
		"",
		"SELEC * FROM region",
		"SELECT * FROM nosuch",
		"SELECT * FROM region WHERE r_nope = 1",
		"SELECT * FROM region WHERE r_regionkey <",
		"SELECT * FROM region trailing WHERE r_regionkey = 1 garbage extra",
		"SELECT * FROM lineitem, orders WHERE l_orderkey < o_orderkey", // non-equi join
		"SELECT * FROM region WHERE r_name = 'unterminated",
		"DELETE FROM region WHERE r_regionkey = r_regionkey", // same-table col-col
	} {
		if _, err := Parse(s, bad); err == nil {
			t.Errorf("expected parse error for %q", bad)
		}
	}
}

func TestParseRejectsIncompatibleLiterals(t *testing.T) {
	s := schema(t)
	for _, bad := range []string{
		"SELECT * FROM orders WHERE o_orderkey = 'x'",       // string vs INT
		"SELECT * FROM nation WHERE n_name = 7",             // number vs VARCHAR
		"SELECT * FROM orders WHERE o_orderdate = 'x'",      // string vs DATE
		"SELECT * FROM orders WHERE o_orderkey = DATE 100",  // DATE vs INT
		"SELECT * FROM nation WHERE n_name BETWEEN 1 AND 2", // numeric BETWEEN on VARCHAR
		"SELECT o_custkey FROM orders GROUP BY o_custkey HAVING COUNT(*) > 'x'",
	} {
		if _, err := Parse(s, bad); err == nil {
			t.Errorf("expected literal-type error for %q", bad)
		}
	}
	// Cross-numeric coercion must stay legal.
	for _, good := range []string{
		"SELECT * FROM orders WHERE o_totalprice > 100", // int literal, FLOAT column
		"SELECT * FROM orders WHERE o_orderkey < 10.5",  // float literal, INT column
		"SELECT * FROM orders WHERE o_orderdate = 8035", // bare number, DATE column
		"SELECT * FROM orders WHERE o_orderdate = DATE 8035",
	} {
		if _, err := Parse(s, good); err != nil {
			t.Errorf("parse %q: %v", good, err)
		}
	}
}

func TestParseSelectRejectsDML(t *testing.T) {
	if _, err := ParseSelect(schema(t), "DELETE FROM region"); err == nil {
		t.Error("ParseSelect must reject DML")
	}
}

func TestParseSemicolonTolerated(t *testing.T) {
	if _, err := Parse(schema(t), "SELECT * FROM region;"); err != nil {
		t.Errorf("trailing semicolon: %v", err)
	}
}
