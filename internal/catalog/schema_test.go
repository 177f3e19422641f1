package catalog

import (
	"testing"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s := NewSchema()
	if err := s.AddTable(NewTable("emp",
		Column{Name: "id", Type: Int},
		Column{Name: "Name", Type: String},
		Column{Name: "dept_id", Type: Int},
	)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTable(NewTable("dept",
		Column{Name: "id", Type: Int},
		Column{Name: "name", Type: String},
	)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaTableLookupCaseInsensitive(t *testing.T) {
	s := testSchema(t)
	for _, name := range []string{"emp", "EMP", "Emp"} {
		if _, err := s.Table(name); err != nil {
			t.Errorf("Table(%q): %v", name, err)
		}
	}
	if _, err := s.Table("nosuch"); err == nil {
		t.Error("expected error for unknown table")
	}
}

func TestSchemaDuplicateTable(t *testing.T) {
	s := testSchema(t)
	if err := s.AddTable(NewTable("EMP")); err == nil {
		t.Error("expected duplicate-table error")
	}
}

func TestColumnLookup(t *testing.T) {
	s := testSchema(t)
	tbl, _ := s.Table("emp")
	if i := tbl.ColumnIndex("NAME"); i != 1 {
		t.Errorf("ColumnIndex(NAME) = %d, want 1", i)
	}
	if i := tbl.ColumnIndex("missing"); i != -1 {
		t.Errorf("ColumnIndex(missing) = %d, want -1", i)
	}
	col, err := tbl.Column("dept_id")
	if err != nil || col.Type != Int {
		t.Errorf("Column(dept_id) = %+v, %v", col, err)
	}
	if _, err := tbl.Column("zzz"); err == nil {
		t.Error("expected error for unknown column")
	}
}

func TestAddIndexValidation(t *testing.T) {
	s := testSchema(t)
	if err := s.AddIndex(Index{Name: "i1", Table: "emp", Column: "id"}); err != nil {
		t.Fatalf("valid index rejected: %v", err)
	}
	if err := s.AddIndex(Index{Name: "i2", Table: "emp", Column: "nope"}); err == nil {
		t.Error("expected error for index on unknown column")
	}
	if err := s.AddIndex(Index{Name: "i3", Table: "nope", Column: "id"}); err == nil {
		t.Error("expected error for index on unknown table")
	}
	if _, ok := s.IndexOn("EMP", "ID"); !ok {
		t.Error("IndexOn should find the index case-insensitively")
	}
	if _, ok := s.IndexOn("emp", "name"); ok {
		t.Error("IndexOn found a nonexistent index")
	}
}

func TestAddForeignKeyValidation(t *testing.T) {
	s := testSchema(t)
	ok := ForeignKey{Table: "emp", Column: "dept_id", RefTable: "dept", RefColumn: "id"}
	if err := s.AddForeignKey(ok); err != nil {
		t.Fatalf("valid FK rejected: %v", err)
	}
	bad := ForeignKey{Table: "emp", Column: "dept_id", RefTable: "dept", RefColumn: "zzz"}
	if err := s.AddForeignKey(bad); err == nil {
		t.Error("expected error for FK to unknown column")
	}
}

func TestTableNamesSorted(t *testing.T) {
	s := testSchema(t)
	names := s.TableNames()
	if len(names) != 2 || names[0] != "dept" || names[1] != "emp" {
		t.Errorf("TableNames() = %v", names)
	}
}

// The catalog is where identifier case is decided: every name it stores is
// lower case, whatever case the definition used.
func TestSchemaStoresLowerCaseNames(t *testing.T) {
	s := NewSchema()
	emp := NewTable("EMP", Column{Name: "ID", Type: Int}, Column{Name: "Dept_ID", Type: Int})
	if emp.Name != "emp" || emp.Columns[0].Name != "id" || emp.Columns[1].Name != "dept_id" {
		t.Errorf("NewTable stored %s%v", emp.Name, emp.Columns)
	}
	if err := s.AddTable(emp); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTable(NewTable("Dept", Column{Name: "ID", Type: Int})); err != nil {
		t.Fatal(err)
	}
	if err := s.AddIndex(Index{Name: "Emp_ID", Table: "Emp", Column: "ID"}); err != nil {
		t.Fatal(err)
	}
	if ix := s.Indexes[0]; ix.Table != "emp" || ix.Column != "id" {
		t.Errorf("AddIndex stored %s.%s", ix.Table, ix.Column)
	}
	if err := s.AddForeignKey(ForeignKey{Table: "EMP", Column: "DEPT_ID", RefTable: "DEPT", RefColumn: "Id"}); err != nil {
		t.Fatal(err)
	}
	if got, want := s.ForeignKeys[0], (ForeignKey{Table: "emp", Column: "dept_id", RefTable: "dept", RefColumn: "id"}); got != want {
		t.Errorf("AddForeignKey stored %+v, want %+v", got, want)
	}
}
