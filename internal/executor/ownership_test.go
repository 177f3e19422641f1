package executor_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/storage"
)

// TestInsertStoresItsOwnRow runs one parsed INSERT twice and writes only the
// first of the two rows it stored. The second must keep its values, and the
// index on the written column must find each row under its own key.
func TestInsertStoresItsOwnRow(t *testing.T) {
	e := newEnv(t, 0, 0.05)
	ins := mustParse(t, e.db, "INSERT INTO region VALUES (9, 'ATLANTIS', 'sunk')")
	for i := 0; i < 2; i++ {
		if _, err := e.ex.RunStatement(e.sess, ins); err != nil {
			t.Fatal(err)
		}
	}
	td := mustTable(t, e.db, "region")
	key := td.Schema.ColumnIndex("r_regionkey")
	seek := func(k int64) []int {
		var ids []int
		v := catalog.NewInt(k)
		td.Seek("r_regionkey", &v, &v, true, true, func(id int, r storage.Row) bool {
			if r[key].I != k {
				t.Errorf("the index finds row %d under key %d, but it reads %d", id, k, r[key].I)
			}
			ids = append(ids, id)
			return true
		})
		return ids
	}
	ids := seek(9)
	if len(ids) != 2 {
		t.Fatalf("rows with key 9 after two inserts: %v, want 2", ids)
	}
	if _, err := td.Update(func(storage.View) ([]int, error) { return ids[:1], nil }, key, catalog.NewInt(10)); err != nil {
		t.Fatal(err)
	}
	if got := seek(9); !slices.Equal(got, ids[1:]) {
		t.Errorf("rows with key 9 after updating row %d: %v, want %v", ids[0], got, ids[1:])
	}
	if got := seek(10); !slices.Equal(got, ids[:1]) {
		t.Errorf("rows with key 10 after updating row %d: %v, want %v", ids[0], got, ids[:1])
	}
}

// TestScanAllocsConstant bounds a scan's allocations by the rows it keeps:
// keeping 1 000 rows may cost at most 8 more allocations than keeping 100
// (the output slice's growth), so no per-row copy comes back. An unfiltered
// scan sizes its output from the table's live row count, so keeping all
// 1 500 rows costs no more than keeping 100.
func TestScanAllocsConstant(t *testing.T) {
	e := newEnv(t, 0, 1)
	allocs := func(keep int, filters ...query.Filter) float64 {
		plan := &optimizer.Plan{Root: scanNode("orders", filters...)}
		res, err := e.ex.Run(plan)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != keep {
			t.Fatalf("scan kept %d rows, want %d", len(res.Rows), keep)
		}
		return testing.AllocsPerRun(20, func() { _, _ = e.ex.Run(plan) })
	}
	below := func(n int) query.Filter {
		return query.Filter{Col: col2("orders", "o_orderkey"), Op: query.Lt, Val: catalog.NewInt(int64(n))}
	}
	small, large, all := allocs(100, below(100)), allocs(1000, below(1000)), allocs(1500)
	if large > small+8 {
		t.Errorf("filtered scan allocs: %v keeping 100 rows, %v keeping 1000; want at most 8 more", small, large)
	}
	if all > small {
		t.Errorf("unfiltered scan allocs: %v keeping all 1500 rows, %v keeping 100 filtered; want no more", all, small)
	}
}

// TestHeldResultsConcurrentUpdate has readers hold SELECT * results while a
// writer UPDATEs every row they hold, one version per statement. An UPDATE
// writes all its rows under one write lock, so each result reads one
// version in every row; each held result must still equal the copy taken
// when it was read. Under -race, a write into a held row fails the test.
func TestHeldResultsConcurrentUpdate(t *testing.T) {
	e := newEnv(t, 0, 0.05)
	const versions, readers = 40, 4
	selects := []query.Statement{
		mustParse(t, e.db, "SELECT * FROM nation"),
		mustParse(t, e.db, "SELECT * FROM nation WHERE n_nationkey < 10"),
	}
	update := func(v int) {
		upd := mustParse(t, e.db, fmt.Sprintf("UPDATE nation SET n_comment = 'v%d' WHERE n_nationkey >= 0", v))
		if _, err := e.ex.RunStatement(e.sess, upd); err != nil {
			t.Error(err)
		}
	}
	update(0)
	type held struct{ rows, snap [][]catalog.Datum }
	results := make([][]held, readers)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < versions; i++ {
				res, err := e.ex.RunStatement(e.sess, selects[i%len(selects)])
				if err != nil {
					t.Error(err)
					return
				}
				h := held{rows: res.Rows, snap: make([][]catalog.Datum, len(res.Rows))}
				for j, r := range res.Rows {
					h.snap[j] = slices.Clone(r)
				}
				results[g] = append(results[g], h)
			}
		}()
	}
	for v := 1; v <= versions; v++ {
		update(v)
	}
	wg.Wait()
	comment := mustTable(t, e.db, "nation").Schema.ColumnIndex("n_comment")
	for g, hs := range results {
		for i, h := range hs {
			for j, r := range h.rows {
				if !slices.Equal(r, h.snap[j]) || r[comment] != h.rows[0][comment] {
					t.Fatalf("reader %d result %d row %d reads %v, read as %v in a result of version %s", g, i, j, r, h.snap[j], h.rows[0][comment].S)
				}
			}
		}
	}
}
