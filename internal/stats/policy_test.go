package stats

import (
	"context"
	"sync"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/histogram"
	"autostats/internal/storage"
)

// maintDB builds a database with two tables so a maintenance pass over one
// can run while another goroutine refreshes the other.
func maintDB(t *testing.T) *storage.Database {
	t.Helper()
	schema := catalog.NewSchema()
	for _, name := range []string{"hot", "cold"} {
		if err := schema.AddTable(catalog.NewTable(name,
			catalog.Column{Name: "v", Type: catalog.Int},
		)); err != nil {
			t.Fatal(err)
		}
	}
	db, err := storage.NewDatabase("maint", schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hot", "cold"} {
		td := mustTable(t, db, name)
		for i := 0; i < 100; i++ {
			if err := td.Insert(storage.Row{catalog.NewInt(int64(i % 7))}); err != nil {
				t.Fatal(err)
			}
		}
		td.ResetModCounter(td.ModCounter())
	}
	return db
}

// TestMaintenanceReportCost: UpdateCostUnits must equal exactly the build
// cost of the statistics the pass itself refreshed.
func TestMaintenanceReportCost(t *testing.T) {
	db := maintDB(t)
	m := NewManager(db, histogram.MaxDiff, 0)
	if _, err := m.Create("hot", []string{"v"}); err != nil {
		t.Fatal(err)
	}
	td := mustTable(t, db, "hot")
	for i := 0; i < 50; i++ {
		if err := td.Insert(storage.Row{catalog.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := m.RunMaintenance(context.Background(), MaintenancePolicy{UpdateFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TablesRefreshed != 1 || rep.StatsRefreshed != 1 {
		t.Fatalf("report = %+v, want 1 table / 1 stat refreshed", rep)
	}
	want := histogram.BuildCostUnits(int64(td.RowCount()), 1)
	if rep.UpdateCostUnits != want {
		t.Errorf("UpdateCostUnits = %v, want %v", rep.UpdateCostUnits, want)
	}
}

// TestMaintenanceCostUnderConcurrentRefresh: a maintenance pass must report
// only its own refresh cost even while another goroutine hammers table refreshes
// on a different table. The old implementation diffed the manager-wide
// TotalUpdateCost around the pass, so the concurrent refreshes leaked into
// the report.
func TestMaintenanceCostUnderConcurrentRefresh(t *testing.T) {
	db := maintDB(t)
	m := NewManager(db, histogram.MaxDiff, 0)
	for _, tbl := range []string{"hot", "cold"} {
		if _, err := m.Create(tbl, []string{"v"}); err != nil {
			t.Fatal(err)
		}
	}
	// Dirty only "hot": the pass must refresh hot and leave cold alone.
	hot := mustTable(t, db, "hot")
	for i := 0; i < 50; i++ {
		if err := hot.Insert(storage.Row{catalog.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := m.refreshTableCost(context.Background(), "cold"); err != nil {
				t.Errorf("concurrent refresh: %v", err)
				return
			}
		}
	}()

	var passCost float64
	for i := 0; i < 5; i++ {
		rep, err := m.RunMaintenance(context.Background(), MaintenancePolicy{UpdateFraction: 0.2})
		if err != nil {
			close(stop)
			t.Fatal(err)
		}
		passCost += rep.UpdateCostUnits
	}
	close(stop)
	wg.Wait()
	// One more refresh outside the passes so the overcount check below cannot
	// depend on goroutine scheduling.
	if _, _, err := m.refreshTableCost(context.Background(), "cold"); err != nil {
		t.Fatal(err)
	}

	// A table refresh resets the mod counter, so only the first pass refreshes
	// hot; its cost is exactly one rebuild of hot(v) at the current row count.
	want := histogram.BuildCostUnits(int64(hot.RowCount()), 1)
	if passCost != want {
		t.Errorf("maintenance passes charged %v, want %v (concurrent refreshes must not leak in)", passCost, want)
	}
	// Sanity: the concurrent refreshes really did land on the global counter,
	// i.e. the old diff-the-global approach would have overcounted.
	if got := m.Snapshot().TotalUpdateCost; got <= want {
		t.Errorf("TotalUpdateCost = %v, expected concurrent refreshes beyond %v", got, want)
	}
}

// TestMaintenanceRefreshesEmptiedTable is the mass-delete regression test:
// a table whose rows were ALL deleted still has pending modifications, and
// the maintenance pass must refresh its statistics so they report zero rows.
// (A former guard skipped tables with RowCount 0 entirely, stranding their
// statistics at the pre-delete cardinalities forever.)
func TestMaintenanceRefreshesEmptiedTable(t *testing.T) {
	db := maintDB(t)
	m := NewManager(db, histogram.MaxDiff, 0)
	st, err := m.Create("hot", []string{"v"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Data.Rows != 100 {
		t.Fatalf("pre-delete stat rows = %d, want 100", st.Data.Rows)
	}
	td := mustTable(t, db, "hot")
	n, err := td.Delete(func(v storage.View) ([]int, error) {
		var ids []int
		v.Scan(func(id int, _ storage.Row) bool {
			ids = append(ids, id)
			return true
		})
		return ids, nil
	})
	if err != nil || n != 100 {
		t.Fatalf("deleted %d rows, want 100", n)
	}
	rep, err := m.RunMaintenance(context.Background(), MaintenancePolicy{UpdateFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TablesRefreshed != 1 || rep.StatsRefreshed != 1 {
		t.Fatalf("report = %+v, want the emptied table refreshed", rep)
	}
	fresh := m.Get(st.ID)
	if fresh == st {
		t.Fatal("statistic was not refreshed after mass delete")
	}
	if lead := fresh.Data.Leading; fresh.Data.Rows != 0 || lead.Rows+lead.NullRows != 0 {
		t.Errorf("refreshed stat reports %d rows (histogram %d), want 0",
			fresh.Data.Rows, lead.Rows+lead.NullRows)
	}
	// The counter was reset: an immediately repeated pass is a no-op.
	rep2, err := m.RunMaintenance(context.Background(), MaintenancePolicy{UpdateFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.TablesRefreshed != 0 {
		t.Errorf("second pass refreshed %d tables, want 0", rep2.TablesRefreshed)
	}
}

// TestMaintenanceKeepsDMLCommittedDuringPass: rows written while a pass runs
// may miss an earlier statistic's scan, so the pass takes off the table's
// counter only what it read before its first rebuild, and those rows stay
// pending for a later pass instead of being counted out.
func TestMaintenanceKeepsDMLCommittedDuringPass(t *testing.T) {
	db := testDB(t)
	m := NewManager(db, histogram.MaxDiff, 0)
	for _, col := range []string{"a", "b"} {
		if _, err := m.Create("t", []string{col}); err != nil {
			t.Fatal(err)
		}
	}
	td := mustTable(t, db, "t")
	for i := 0; i < 40; i++ {
		if err := td.Insert(storage.Row{catalog.NewInt(int64(i)), catalog.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
	}
	// The pass refreshes in ID order: t(a) is rebuilt, then another writer
	// commits 7 rows just before t(b)'s rebuild.
	a, b := MakeID("t", []string{"a"}), MakeID("t", []string{"b"})
	m.SetFailpoint(func(_ context.Context, op string, id ID) error {
		if op == "refresh" && id == b {
			for i := 0; i < 7; i++ {
				if err := td.Insert(storage.Row{catalog.NewInt(500), catalog.NewInt(2)}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	rep, err := m.RunMaintenance(context.Background(), MaintenancePolicy{UpdateFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StatsRefreshed != 2 || len(rep.RefreshFailures) > 0 {
		t.Fatalf("report = %+v, want both statistics refreshed", rep)
	}
	if rows := m.Get(a).Data.Rows; rows != 140 {
		t.Fatalf("t(a) summarizes %d rows, want the 140 present at its scan", rows)
	}
	if got := td.ModCounter(); got != 7 {
		t.Errorf("ModCounter = %d after the pass, want the 7 rows t(a) never saw", got)
	}
}
