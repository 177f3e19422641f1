package query

import (
	"testing"

	"autostats/internal/catalog"
)

func TestCmpOpEval(t *testing.T) {
	three, five := catalog.NewInt(3), catalog.NewInt(5)
	cases := []struct {
		op   CmpOp
		a, b catalog.Datum
		want bool
	}{
		{Eq, three, three, true}, {Eq, three, five, false},
		{Ne, three, five, true}, {Ne, three, three, false},
		{Lt, three, five, true}, {Lt, five, three, false}, {Lt, three, three, false},
		{Le, three, three, true}, {Le, five, three, false},
		{Gt, five, three, true}, {Gt, three, three, false},
		{Ge, three, three, true}, {Ge, three, five, false},
	}
	for _, c := range cases {
		got, err := c.op.Eval(c.a, c.b)
		if err != nil {
			t.Fatalf("%v %s %v: %v", c.a, c.op, c.b, err)
		}
		if got != c.want {
			t.Errorf("%v %s %v = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestCmpOpNullSemantics(t *testing.T) {
	n := catalog.NewNull(catalog.Int)
	for _, op := range []CmpOp{Eq, Ne, Lt, Le, Gt, Ge} {
		a, err := op.Eval(n, catalog.NewInt(1))
		if err != nil {
			t.Fatal(err)
		}
		b, err := op.Eval(catalog.NewInt(1), n)
		if err != nil {
			t.Fatal(err)
		}
		if a || b {
			t.Errorf("%s with NULL must be false", op)
		}
	}
}

func TestCmpOpEvalIncompatibleTypes(t *testing.T) {
	for _, op := range []CmpOp{Eq, Ne, Lt, Le, Gt, Ge} {
		if _, err := op.Eval(catalog.NewString("x"), catalog.NewInt(1)); err == nil {
			t.Errorf("%s on string vs int: want error, got nil", op)
		}
	}
	// Int/float cross-comparison stays legal.
	if got, err := Lt.Eval(catalog.NewInt(1), catalog.NewFloat(1.5)); err != nil || !got {
		t.Errorf("1 < 1.5 = %v, %v; want true, nil", got, err)
	}
}

func TestNormalizeAssignsDenseVarIDs(t *testing.T) {
	q := &Select{
		Tables: []string{"a", "b"},
		Filters: []Filter{
			{Col: ColumnRef{"a", "x"}, Op: Lt, Val: catalog.NewInt(1)},
			{Col: ColumnRef{"b", "y"}, Op: Eq, Val: catalog.NewInt(2)},
		},
		Joins:   []JoinPred{{Left: ColumnRef{"a", "k"}, Right: ColumnRef{"b", "k"}}},
		GroupBy: []ColumnRef{{"a", "x"}},
	}
	q.Normalize()
	if q.Filters[0].VarID != 0 || q.Filters[1].VarID != 1 || q.Joins[0].VarID != 2 || q.GroupVarID != 3 {
		t.Errorf("var ids: %d %d %d %d", q.Filters[0].VarID, q.Filters[1].VarID, q.Joins[0].VarID, q.GroupVarID)
	}
	q.GroupBy = nil
	q.Normalize()
	if q.GroupVarID != -1 {
		t.Errorf("after removing group by: GroupVarID=%d", q.GroupVarID)
	}
}

func TestDistinctActsAsGrouping(t *testing.T) {
	q := &Select{
		Tables:     []string{"a"},
		Distinct:   true,
		Projection: []ColumnRef{{"a", "x"}},
	}
	q.Normalize()
	if q.GroupVarID < 0 {
		t.Error("SELECT DISTINCT must get a grouping selectivity variable")
	}
	cols := q.GroupingColumns()
	if len(cols) != 1 || cols[0].Column != "x" {
		t.Errorf("GroupingColumns = %v", cols)
	}
}

func TestFiltersOn(t *testing.T) {
	q := &Select{
		Tables: []string{"a", "b"},
		Filters: []Filter{
			{Col: ColumnRef{"a", "x"}, Op: Lt, Val: catalog.NewInt(1)},
			{Col: ColumnRef{"b", "y"}, Op: Eq, Val: catalog.NewInt(2)},
			{Col: ColumnRef{"a", "z"}, Op: Gt, Val: catalog.NewInt(3)},
		},
	}
	if got := q.FiltersOn("a"); len(got) != 2 {
		t.Errorf("FiltersOn(a) = %d filters", len(got))
	}
	if got := q.FiltersOn("b"); len(got) != 1 || got[0].Col.Column != "y" {
		t.Errorf("FiltersOn(b) = %v", got)
	}
}

func TestStatementSQLRendering(t *testing.T) {
	sel := &Select{
		Tables: []string{"emp", "dept"},
		Filters: []Filter{
			{Col: ColumnRef{"emp", "age"}, Op: Lt, Val: catalog.NewInt(30)},
		},
		Joins:   []JoinPred{{Left: ColumnRef{"emp", "deptid"}, Right: ColumnRef{"dept", "deptid"}}},
		GroupBy: []ColumnRef{{"dept", "name"}},
		OrderBy: []ColumnRef{{"dept", "name"}},
	}
	want := "SELECT * FROM emp, dept WHERE emp.age < 30 AND emp.deptid = dept.deptid GROUP BY dept.name ORDER BY dept.name"
	if got := sel.SQL(); got != want {
		t.Errorf("Select.SQL() = %q\nwant %q", got, want)
	}
	if !sel.IsQuery() {
		t.Error("Select.IsQuery")
	}

	ins := &Insert{Table: "emp", Values: []catalog.Datum{catalog.NewInt(1), catalog.NewString("bob")}}
	if got := ins.SQL(); got != "INSERT INTO emp VALUES (1, 'bob')" {
		t.Errorf("Insert.SQL() = %q", got)
	}
	del := &Delete{Table: "emp", Filters: []Filter{{Col: ColumnRef{"emp", "id"}, Op: Eq, Val: catalog.NewInt(7)}}}
	if got := del.SQL(); got != "DELETE FROM emp WHERE emp.id = 7" {
		t.Errorf("Delete.SQL() = %q", got)
	}
	upd := &Update{Table: "emp", SetCol: "age", SetVal: catalog.NewInt(31),
		Filters: []Filter{{Col: ColumnRef{"emp", "id"}, Op: Eq, Val: catalog.NewInt(7)}}}
	if got := upd.SQL(); got != "UPDATE emp SET age = 31 WHERE emp.id = 7" {
		t.Errorf("Update.SQL() = %q", got)
	}
	for _, s := range []Statement{ins, del, upd} {
		if s.IsQuery() {
			t.Errorf("%T.IsQuery() should be false", s)
		}
	}
}

func TestColumnRefKey(t *testing.T) {
	if got := (ColumnRef{"orders", "o_orderkey"}).Key(); got != "orders.o_orderkey" {
		t.Errorf("Key() = %q, want orders.o_orderkey", got)
	}
}

func TestSelectStar(t *testing.T) {
	q := &Select{Tables: []string{"t"}}
	if q.SQL() != "SELECT * FROM t" {
		t.Errorf("SQL = %q", q.SQL())
	}
	d := &Select{Tables: []string{"t"}, Distinct: true, Projection: []ColumnRef{{"t", "c"}}}
	if d.SQL() != "SELECT DISTINCT t.c FROM t" {
		t.Errorf("SQL = %q", d.SQL())
	}
}
