package storage

import (
	"errors"
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

// deleteIDs and updateIDs write the given rows, as a DML statement that
// picked them would.
func deleteIDs(td *TableData, ids ...int) int {
	n, _ := td.Delete(func(View) ([]int, error) { return ids, nil })
	return n
}

func updateIDs(td *TableData, col int, v catalog.Datum, ids ...int) int {
	n, _ := td.Update(func(View) ([]int, error) { return ids, nil }, col, v)
	return n
}

// seekIDs returns the IDs a seek over [lo, hi] on col visits, in index order.
func seekIDs(t *testing.T, td *TableData, col string, lo, hi *catalog.Datum, loInc, hiInc bool) []int {
	t.Helper()
	var ids []int
	if !td.Seek(col, lo, hi, loInc, hiInc, func(id int, _ Row) bool {
		ids = append(ids, id)
		return true
	}) {
		t.Fatalf("no index on %s", col)
	}
	return ids
}

// rowOf returns the live row id, or nil, through a scan.
func rowOf(td *TableData, id int) Row {
	var out Row
	td.Scan(func(got int, r Row) bool {
		if got == id {
			out = append(Row(nil), r...)
		}
		return got < id
	})
	return out
}

func TestInsertScanGet(t *testing.T) {
	td := newTableData(empSchema())
	if err := td.createIndex("id"); err != nil {
		t.Fatal(err)
	}
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
	five, none := catalog.NewInt(5), catalog.NewInt(99)
	if ids := seekIDs(t, td, "id", &five, &five, true, true); len(ids) != 1 || ids[0] != 5 {
		t.Errorf("seek of id 5 found %v", ids)
	}
	if ids := seekIDs(t, td, "id", &none, &none, true, true); len(ids) != 0 {
		t.Errorf("seek of id 99 found %v", ids)
	}
	if td.Seek("salary", nil, nil, true, true, func(int, Row) bool { return true }) {
		t.Error("seek on an unindexed column reported an index")
	}
}

func TestInsertArityError(t *testing.T) {
	td := newTableData(empSchema())
	if err := td.Insert(Row{catalog.NewInt(1)}); err == nil {
		t.Error("expected arity error")
	}
}

func TestDeleteTombstones(t *testing.T) {
	td := newTableData(empSchema())
	for i := 0; i < 10; i++ {
		_ = td.Insert(row(int64(i), 0, "x"))
	}
	n := deleteIDs(td, 2, 4, 4, 99)
	if n != 2 {
		t.Fatalf("Delete removed %d, want 2", n)
	}
	if td.RowCount() != 8 {
		t.Errorf("RowCount after delete = %d", td.RowCount())
	}
	if rowOf(td, 2) != nil {
		t.Error("deleted row still visible")
	}
	seen := 0
	td.Scan(func(_ int, _ Row) bool { seen++; return true })
	if seen != 8 {
		t.Errorf("scan after delete saw %d", seen)
	}
}

func TestUpdateAndModCounter(t *testing.T) {
	td := newTableData(empSchema())
	for i := 0; i < 5; i++ {
		_ = td.Insert(row(int64(i), 0, "x"))
	}
	if td.ModCounter() != 5 {
		t.Fatalf("mod counter after inserts = %d", td.ModCounter())
	}
	n := updateIDs(td, 1, catalog.NewFloat(999), 1, 3)
	if n != 2 {
		t.Fatalf("Update touched %d", n)
	}
	if td.ModCounter() != 7 {
		t.Errorf("mod counter after update = %d", td.ModCounter())
	}
	if r := rowOf(td, 1); r[1].F != 999 {
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
	td := newTableData(empSchema())
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
	td := newTableData(empSchema())
	if err := td.createIndex("salary"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		_ = td.Insert(row(int64(i), float64(i%5)*10, "x"))
	}
	twenty := catalog.NewFloat(20)
	ids := seekIDs(t, td, "salary", &twenty, &twenty, true, true)
	if len(ids) != 4 {
		t.Fatalf("seek of 20 found %d rows, want 4", len(ids))
	}
	// Update a matching row away and a non-matching row in.
	updateIDs(td, 1, catalog.NewFloat(55), ids[0])
	updateIDs(td, 1, twenty, 0) // row 0 had salary 0
	ids = seekIDs(t, td, "salary", &twenty, &twenty, true, true)
	if len(ids) != 4 {
		t.Fatalf("after updates seek of 20 found %d rows, want 4", len(ids))
	}
	// Deleted rows remain in the index, so Count sees them, but Seek skips
	// them.
	deleteIDs(td, ids[0])
	if live := seekIDs(t, td, "salary", &twenty, &twenty, true, true); len(live) != 3 {
		t.Fatalf("live matches after delete = %d, want 3", len(live))
	}
	td.mu.RLock()
	n, ok := View{td}.Count("salary", &twenty, &twenty, true, true)
	td.mu.RUnlock()
	if !ok || n != 4 {
		t.Fatalf("Count after delete = %d, %v, want 4 entries", n, ok)
	}
}

// TestIndexSeekRangeMatchesScan: property test — Seek agrees with a linear
// scan for random data and random bounds, and Count with Seek.
func TestIndexSeekRangeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	td := newTableData(empSchema())
	if err := td.createIndex("id"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		_ = td.Insert(row(int64(rng.Intn(50)), 0, "x"))
	}

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
		got := seekIDs(t, td, "id", lo, hi, loInc, hiInc)
		td.mu.RLock()
		n, _ := View{td}.Count("id", lo, hi, loInc, hiInc)
		td.mu.RUnlock()
		if n != len(got) {
			return false
		}
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
	td := newTableData(empSchema())
	_ = td.Insert(row(1, 10, "a"))
	_ = td.Insert(row(2, 20, "b"))
	deleteIDs(td, 0)
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
	td := newTableData(empSchema())
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
	if td.indexes["id"] == nil {
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

// TestFindErrorLeavesTableUnchanged: an error from the function that picks
// a write's rows aborts the write.
func TestFindErrorLeavesTableUnchanged(t *testing.T) {
	td := newTableData(empSchema())
	for i := 0; i < 3; i++ {
		_ = td.Insert(row(int64(i), 0, "x"))
	}
	boom := errors.New("boom")
	fail := func(View) ([]int, error) { return []int{0, 1}, boom }
	if n, err := td.Delete(fail); n != 0 || err != boom {
		t.Errorf("Delete = %d, %v", n, err)
	}
	if n, err := td.Update(fail, 1, catalog.NewFloat(1)); n != 0 || err != boom {
		t.Errorf("Update = %d, %v", n, err)
	}
	if td.RowCount() != 3 || td.ModCounter() != 3 || rowOf(td, 0)[1].F != 0 {
		t.Errorf("failed writes changed the table: %d rows, counter %d", td.RowCount(), td.ModCounter())
	}
}
