package storage

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"autostats/internal/catalog"
)

func empSchema() *catalog.Table {
	return catalog.NewTable("emp",
		catalog.Column{Name: "id", Type: catalog.Int},
		catalog.Column{Name: "salary", Type: catalog.Float},
		catalog.Column{Name: "name", Type: catalog.String},
	)
}

func row(id int64, salary float64, name string) Row {
	return Row{catalog.NewInt(id), catalog.NewFloat(salary), catalog.NewString(name)}
}

func TestInsertScanGet(t *testing.T) {
	td := NewTableData(empSchema())
	for i := 0; i < 10; i++ {
		if err := td.Insert(row(int64(i), float64(i)*100, "e")); err != nil {
			t.Fatal(err)
		}
	}
	if td.RowCount() != 10 {
		t.Fatalf("RowCount = %d", td.RowCount())
	}
	seen := 0
	td.Scan(func(id int, r Row) bool {
		if r[0].I != int64(id) {
			t.Errorf("row %d has id datum %d", id, r[0].I)
		}
		seen++
		return true
	})
	if seen != 10 {
		t.Errorf("scan saw %d rows", seen)
	}
	if _, ok := td.Get(5); !ok {
		t.Error("Get(5) failed")
	}
	if _, ok := td.Get(99); ok {
		t.Error("Get(99) should fail")
	}
}

func TestInsertArityError(t *testing.T) {
	td := NewTableData(empSchema())
	if err := td.Insert(Row{catalog.NewInt(1)}); err == nil {
		t.Error("expected arity error")
	}
}

func TestDeleteTombstonesAndCompact(t *testing.T) {
	td := NewTableData(empSchema())
	for i := 0; i < 10; i++ {
		_ = td.Insert(row(int64(i), 0, "x"))
	}
	n := td.Delete([]int{2, 4, 4, 99})
	if n != 2 {
		t.Fatalf("Delete removed %d, want 2", n)
	}
	if td.RowCount() != 8 {
		t.Errorf("RowCount after delete = %d", td.RowCount())
	}
	if _, ok := td.Get(2); ok {
		t.Error("deleted row still visible")
	}
	td.Compact()
	if td.RowCount() != 8 {
		t.Errorf("RowCount after compact = %d", td.RowCount())
	}
	seen := 0
	td.Scan(func(_ int, _ Row) bool { seen++; return true })
	if seen != 8 {
		t.Errorf("scan after compact saw %d", seen)
	}
}

func TestUpdateAndModCounter(t *testing.T) {
	td := NewTableData(empSchema())
	for i := 0; i < 5; i++ {
		_ = td.Insert(row(int64(i), 0, "x"))
	}
	if td.ModCounter() != 5 {
		t.Fatalf("mod counter after inserts = %d", td.ModCounter())
	}
	n := td.Update([]int{1, 3}, 1, catalog.NewFloat(999))
	if n != 2 {
		t.Fatalf("Update touched %d", n)
	}
	if td.ModCounter() != 7 {
		t.Errorf("mod counter after update = %d", td.ModCounter())
	}
	r, _ := td.Get(1)
	if r[1].F != 999 {
		t.Errorf("update not applied: %v", r[1])
	}
	// A refresh that saw 5 of the 7 modifications leaves 2 pending; taking
	// off more than remain clamps at zero.
	td.ResetModCounter(5)
	if td.ModCounter() != 2 {
		t.Errorf("mod counter after taking 5 off 7 = %d, want 2", td.ModCounter())
	}
	td.ResetModCounter(7)
	if td.ModCounter() != 0 {
		t.Errorf("mod counter after over-subtraction = %d, want 0", td.ModCounter())
	}
}

func TestBulkLoadDoesNotBumpModCounter(t *testing.T) {
	td := NewTableData(empSchema())
	rows := []Row{row(1, 1, "a"), row(2, 2, "b")}
	if err := td.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	if td.ModCounter() != 0 {
		t.Errorf("bulk load bumped mod counter to %d", td.ModCounter())
	}
	if td.RowCount() != 2 {
		t.Errorf("RowCount = %d", td.RowCount())
	}
	if err := td.BulkLoad([]Row{{catalog.NewInt(1)}}); err == nil {
		t.Error("expected arity error from bulk load")
	}
}

func TestIndexMaintainedAcrossDML(t *testing.T) {
	td := NewTableData(empSchema())
	if err := td.CreateIndex("salary"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		_ = td.Insert(row(int64(i), float64(i%5)*10, "x"))
	}
	ix, ok := td.IndexOn("SALARY")
	if !ok {
		t.Fatal("index not found")
	}
	ids := ix.SeekEqual(catalog.NewFloat(20))
	if len(ids) != 4 {
		t.Fatalf("SeekEqual(20) found %d rows, want 4", len(ids))
	}
	// Update a matching row away and a non-matching row in.
	td.Update([]int{ids[0]}, 1, catalog.NewFloat(55))
	td.Update([]int{0}, 1, catalog.NewFloat(20)) // row 0 had salary 0
	ids = ix.SeekEqual(catalog.NewFloat(20))
	if len(ids) != 4 {
		t.Fatalf("after updates SeekEqual(20) found %d rows, want 4", len(ids))
	}
	// Deleted rows remain in the index but Get filters them.
	td.Delete([]int{ids[0]})
	live := 0
	for _, id := range ix.SeekEqual(catalog.NewFloat(20)) {
		if _, ok := td.Get(id); ok {
			live++
		}
	}
	if live != 3 {
		t.Fatalf("live matches after delete = %d, want 3", live)
	}
}

// TestIndexSeekRangeMatchesScan: property test — SeekRange agrees with a
// linear scan for random data and random bounds.
func TestIndexSeekRangeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	td := NewTableData(empSchema())
	if err := td.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		_ = td.Insert(row(int64(rng.Intn(50)), 0, "x"))
	}
	ix, _ := td.IndexOn("id")

	f := func(loRaw, hiRaw int8, loInc, hiInc, loNil, hiNil bool) bool {
		var lo, hi *catalog.Datum
		if !loNil {
			d := catalog.NewInt(int64(loRaw) % 50)
			lo = &d
		}
		if !hiNil {
			d := catalog.NewInt(int64(hiRaw) % 50)
			hi = &d
		}
		got := append([]int(nil), ix.SeekRange(lo, hi, loInc, hiInc)...)
		sort.Ints(got)
		var want []int
		td.Scan(func(id int, r Row) bool {
			v := r[0]
			if lo != nil {
				c := v.Compare(*lo)
				if c < 0 || (!loInc && c == 0) {
					return true
				}
			}
			if hi != nil {
				c := v.Compare(*hi)
				if c > 0 || (!hiInc && c == 0) {
					return true
				}
			}
			want = append(want, id)
			return true
		})
		sort.Ints(want)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestColumnValues(t *testing.T) {
	td := NewTableData(empSchema())
	_ = td.Insert(row(1, 10, "a"))
	_ = td.Insert(row(2, 20, "b"))
	td.Delete([]int{0})
	vals, err := td.ColumnValues("salary")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0].F != 20 {
		t.Errorf("ColumnValues = %v", vals)
	}
	if _, err := td.ColumnValues("nope"); err == nil {
		t.Error("expected error for unknown column")
	}
}

func TestMultiColumnValues(t *testing.T) {
	td := NewTableData(empSchema())
	_ = td.Insert(row(1, 10, "a"))
	_ = td.Insert(row(2, 20, "b"))
	tuples, err := td.MultiColumnValues([]string{"name", "id"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 || tuples[0][0].S != "a" || tuples[0][1].I != 1 {
		t.Errorf("MultiColumnValues = %v", tuples)
	}
	if _, err := td.MultiColumnValues([]string{"id", "zz"}); err == nil {
		t.Error("expected error for unknown column")
	}
}

func TestDatabaseSetup(t *testing.T) {
	schema := catalog.NewSchema()
	if err := schema.AddTable(empSchema()); err != nil {
		t.Fatal(err)
	}
	if err := schema.AddIndex(catalog.Index{Name: "ix", Table: "emp", Column: "id"}); err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase("test", schema)
	if err != nil {
		t.Fatal(err)
	}
	td, err := db.Table("EMP")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := td.IndexOn("id"); !ok {
		t.Error("schema index was not built")
	}
	if _, err := db.Table("nope"); err == nil {
		t.Error("expected unknown-table error")
	}
	_ = td.Insert(row(1, 1, "x"))
	if db.TotalRows() != 1 {
		t.Errorf("TotalRows = %d", db.TotalRows())
	}
}
