package storage

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"autostats/internal/catalog"
)

// lendAll scans td, lends every live row and returns the rows it kept.
func lendAll(td *TableData) []Row {
	var kept []Row
	td.Scan(func(id int, r Row) bool {
		td.Lend(id)
		kept = append(kept, r)
		return true
	})
	return kept
}

// TestUpdateCopiesOnlyLentRows holds Update to the lending rule: a row no
// reader kept is written in place, a kept row is copied so that its holder
// still reads the old value, and the copy is written in place after.
func TestUpdateCopiesOnlyLentRows(t *testing.T) {
	td := newTableData(empSchema())
	ids := make([]int, 100)
	for i := range ids {
		ids[i] = i
		if err := td.Insert(row(int64(i), 10, "x")); err != nil {
			t.Fatal(err)
		}
	}
	salary := catalog.NewFloat(20)
	if n := testing.AllocsPerRun(10, func() { updateIDs(td, 1, salary, ids...) }); n != 0 {
		t.Errorf("Update of 100 rows no reader kept: %v allocations, want 0", n)
	}

	var kept Row
	td.Scan(func(id int, r Row) bool {
		if id == 5 {
			td.Lend(id)
			kept = r
		}
		return true
	})
	if updateIDs(td, 1, catalog.NewFloat(30), 5) != 1 {
		t.Fatal("Update touched no row")
	}
	if kept[1].F != 20 {
		t.Errorf("the kept row reads salary %v after the Update, want the 20 it was read with", kept[1].F)
	}
	if r := rowOf(td, 5); r[1].F != 30 {
		t.Errorf("the table reads salary %v after the Update, want 30", r[1].F)
	}
	five := ids[5:6]
	if n := testing.AllocsPerRun(10, func() { updateIDs(td, 1, catalog.NewFloat(40), five...) }); n != 0 {
		t.Errorf("second Update of the copied row: %v allocations, want 0 (written in place)", n)
	}
	if kept[1].F != 20 {
		t.Errorf("the kept row reads salary %v after a second Update, want 20", kept[1].F)
	}
}

// TestLendSizedAcrossLoadAndInsert lends rows on both sides of the bitmap's
// word boundaries, after a BulkLoad and after Inserts, and checks that each
// kept row survives an Update.
func TestLendSizedAcrossLoadAndInsert(t *testing.T) {
	td := newTableData(empSchema())
	rows := make([]Row, 64)
	for i := range rows {
		rows[i] = row(int64(i), 1, "x")
	}
	if err := td.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	for i := 64; i < 130; i++ {
		if err := td.Insert(row(int64(i), 1, "x")); err != nil {
			t.Fatal(err)
		}
	}
	kept := lendAll(td)
	ids := make([]int, len(kept))
	for i := range ids {
		ids[i] = i
	}
	updateIDs(td, 1, catalog.NewFloat(2), ids...)
	for i, r := range kept {
		if r[1].F != 1 {
			t.Fatalf("kept row %d reads %v after the Update, want 1", i, r[1].F)
		}
	}
}

// TestLentRowsConcurrentUpdate has readers lend and hold every row of a
// table while a writer rewrites all of them, one Update per version. An
// Update writes every row under one write lock, so a scan sees one version
// in every row; every held scan must still read as the copy taken when it
// was read. Under -race, a write into a lent row fails the test.
func TestLentRowsConcurrentUpdate(t *testing.T) {
	td := newTableData(empSchema())
	const nrows, versions, readers = 200, 50, 4
	ids := make([]int, nrows)
	for i := range ids {
		ids[i] = i
		if err := td.Insert(row(int64(i), 0, "v0")); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	held := make([][][]Row, readers) // per reader: kept rows, then their copy
	for g := range held {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < versions; i++ {
				kept := lendAll(td)
				snap := make([]Row, len(kept))
				for j, r := range kept {
					snap[j] = slices.Clone(r)
				}
				held[g] = append(held[g], kept, snap)
			}
		}()
	}
	for v := 1; v <= versions; v++ {
		updateIDs(td, 2, catalog.NewString(fmt.Sprintf("v%d", v)), ids...)
	}
	wg.Wait()
	for g, h := range held {
		for i := 0; i < len(h); i += 2 {
			kept, snap := h[i], h[i+1]
			for j, r := range kept {
				if !slices.Equal(r, snap[j]) || r[2] != kept[0][2] {
					t.Fatalf("reader %d scan %d row %d reads %v, read as %v in a scan of version %v", g, i/2, j, r, snap[j], kept[0][2].S)
				}
			}
		}
	}
}
