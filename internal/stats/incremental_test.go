package stats

import (
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/histogram"
	"autostats/internal/obs"
	"autostats/internal/storage"
)

// TestBuildMetrics: a build that cuts several partitions is visible in the
// registry — one full scan, every cut partial merged, the blocks counted.
func TestBuildMetrics(t *testing.T) {
	m := NewManager(testDB(t), histogram.EquiDepth, 0)
	reg := obs.New()
	m.SetObsRegistry(reg)
	// 100 rows in blocks of 10, cut every 25 rows: the cut is checked after
	// each block, so partitions close at 30, 60, 90 and the 10-row tail.
	if err := m.SetStreamingBuild(StreamConfig{BlockSize: 10, PartitionRows: 25}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("t", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["stats.build.partials_merged"]; got != 4 {
		t.Errorf("partials_merged = %d, want 4", got)
	}
	if got := snap.Counters["stats.build.blocks"]; got != 10 {
		t.Errorf("blocks = %d, want 10", got)
	}
	if got := snap.Counters["stats.build.full_scans"]; got != 1 {
		t.Errorf("full_scans = %d, want 1", got)
	}
}

// TestFoldRefreshAvoidsRescan is the incremental-maintenance acceptance
// check: after a small batch of DML, a refresh folds the logged deltas into
// the histogram without rescanning the table, charges the (much cheaper)
// fold cost, and keeps row totals exact.
func TestFoldRefreshAvoidsRescan(t *testing.T) {
	db := testDB(t)
	m := NewManager(db, histogram.EquiDepth, 0)
	reg := obs.New()
	m.SetObsRegistry(reg)
	if err := m.SetIncrementalMaintenance(FoldConfig{Enabled: true}); err != nil {
		t.Fatal(err)
	}
	st, err := m.Create("t", []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	td := mustTable(t, db, "t")
	for i := 0; i < 5; i++ {
		if err := td.Insert(storage.Row{catalog.NewInt(3), catalog.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
	}
	scansBefore := reg.Snapshot().Counters["stats.build.full_scans"]
	acctBefore := m.Snapshot()
	if err := m.Refresh(st.ID); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["stats.build.full_scans"]; got != scansBefore {
		t.Errorf("fold-eligible refresh rescanned the table: full_scans %d -> %d", scansBefore, got)
	}
	if got := snap.Counters["stats.fold.applied"]; got != 1 {
		t.Errorf("fold.applied = %d, want 1", got)
	}
	if got := snap.Counters["stats.fold.rows"]; got != 5 {
		t.Errorf("fold.rows = %d, want 5", got)
	}
	fresh := m.Get(st.ID)
	if fresh == st {
		t.Fatal("refresh did not replace the published snapshot")
	}
	if fresh.Data.Rows != int64(td.RowCount()) {
		t.Errorf("folded rows = %d, table has %d", fresh.Data.Rows, td.RowCount())
	}
	if fresh.FoldedRows != 5 {
		t.Errorf("FoldedRows = %d, want 5", fresh.FoldedRows)
	}
	if fresh.UpdateCount != st.UpdateCount+1 {
		t.Errorf("UpdateCount = %d, want %d", fresh.UpdateCount, st.UpdateCount+1)
	}
	// The original snapshot must be untouched (immutability contract).
	if st.Data.Rows != 100 || st.FoldedRows != 0 {
		t.Errorf("pre-refresh snapshot mutated: rows=%d folded=%d", st.Data.Rows, st.FoldedRows)
	}
	// The fold charged FoldCostUnits, far below a rebuild's BuildCostUnits.
	acct := m.Snapshot()
	foldCost := acct.TotalUpdateCost - acctBefore.TotalUpdateCost
	if want := histogram.FoldCostUnits(5); foldCost != want {
		t.Errorf("fold charged %v units, want %v", foldCost, want)
	}
	if acct.UpdateOpCount != acctBefore.UpdateOpCount+1 {
		t.Errorf("UpdateOpCount = %d, want %d", acct.UpdateOpCount, acctBefore.UpdateOpCount+1)
	}
}

// TestFoldThresholdForcesRebuild: once accumulated deltas exceed
// MaxFoldFraction of the table, the refresh falls back to a full rebuild
// and resets the fold error.
func TestFoldThresholdForcesRebuild(t *testing.T) {
	db := testDB(t)
	m := NewManager(db, histogram.EquiDepth, 0)
	reg := obs.New()
	m.SetObsRegistry(reg)
	if err := m.SetIncrementalMaintenance(FoldConfig{Enabled: true, MaxFoldFraction: 0.05}); err != nil {
		t.Fatal(err)
	}
	st, err := m.Create("t", []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	td := mustTable(t, db, "t")
	for i := 0; i < 20; i++ { // 20 deltas > 5% of ~120 rows
		if err := td.Insert(storage.Row{catalog.NewInt(1), catalog.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
	}
	scansBefore := reg.Snapshot().Counters["stats.build.full_scans"]
	if err := m.Refresh(st.ID); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["stats.build.full_scans"]; got != scansBefore+1 {
		t.Errorf("over-threshold refresh did not rescan: full_scans %d -> %d", scansBefore, got)
	}
	if got := snap.Counters["stats.fold.rebuilds"]; got != 1 {
		t.Errorf("fold.rebuilds = %d, want 1", got)
	}
	fresh := m.Get(st.ID)
	if fresh.FoldedRows != 0 {
		t.Errorf("rebuild left FoldedRows = %d", fresh.FoldedRows)
	}
	if fresh.Data.Rows != int64(td.RowCount()) {
		t.Errorf("rebuilt rows = %d, table has %d", fresh.Data.Rows, td.RowCount())
	}
	// The rebuild re-stamped the watermark: the next small batch folds.
	if err := td.Insert(storage.Row{catalog.NewInt(2), catalog.NewInt(2)}); err != nil {
		t.Fatal(err)
	}
	if err := m.Refresh(st.ID); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["stats.fold.applied"]; got != 1 {
		t.Errorf("post-rebuild refresh did not fold: fold.applied = %d", got)
	}
}

// TestFoldDisabledByDefault: without SetIncrementalMaintenance every
// refresh is a full rebuild and tables carry no delta log.
func TestFoldDisabledByDefault(t *testing.T) {
	db := testDB(t)
	m := NewManager(db, histogram.EquiDepth, 0)
	if mustTable(t, db, "t").DeltaLogEnabled() {
		t.Fatal("delta log enabled without opting in")
	}
	reg := obs.New()
	m.SetObsRegistry(reg)
	st, err := m.Create("t", []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Refresh(st.ID); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["stats.build.full_scans"]; got != 2 {
		t.Errorf("full_scans = %d, want 2 (create + refresh)", got)
	}
	if got := snap.Counters["stats.fold.applied"]; got != 0 {
		t.Errorf("fold.applied = %d with folding disabled", got)
	}
}

// TestEpochAndCountAcrossTables: mutations across many tables keep the epoch
// strictly increasing and the count gauge exact.
func TestEpochAndCountAcrossTables(t *testing.T) {
	schema := catalog.NewSchema()
	tables := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	for _, name := range tables {
		if err := schema.AddTable(catalog.NewTable(name,
			catalog.Column{Name: "a", Type: catalog.Int},
		)); err != nil {
			t.Fatal(err)
		}
	}
	db, err := storage.NewDatabase("db", schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range tables {
		td := mustTable(t, db, name)
		for i := 0; i < 10; i++ {
			if err := td.Insert(storage.Row{catalog.NewInt(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := NewManager(db, histogram.EquiDepth, 0)
	reg := obs.New()
	m.SetObsRegistry(reg)
	last := m.Epoch()
	for _, name := range tables {
		if _, err := m.Create(name, []string{"a"}); err != nil {
			t.Fatal(err)
		}
		if e := m.Epoch(); e <= last {
			t.Fatalf("epoch did not advance on create of %s: %d -> %d", name, last, e)
		} else {
			last = e
		}
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["stats.count"]; got != int64(len(tables)) {
		t.Errorf("stats.count = %d, want %d", got, len(tables))
	}
	if got := snap.Gauges["stats.epoch"]; got != int64(m.Epoch()) {
		t.Errorf("stats.epoch gauge = %d, manager epoch %d", got, m.Epoch())
	}
	if got := len(m.All()); got != len(tables) {
		t.Errorf("All() = %d stats, want %d", got, len(tables))
	}
	// Wholesale reset.
	m.dropAll()
	if got := reg.Snapshot().Gauges["stats.count"]; got != 0 {
		t.Errorf("stats.count after dropAll = %d", got)
	}
	if e := m.Epoch(); e <= last {
		t.Errorf("dropAll did not bump epoch: %d -> %d", last, e)
	}
}
