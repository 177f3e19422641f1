package stats

import (
	"context"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/histogram"
	"autostats/internal/obs"
	"autostats/internal/storage"
)

func testDB(t *testing.T) *storage.Database {
	t.Helper()
	schema := catalog.NewSchema()
	if err := schema.AddTable(catalog.NewTable("t",
		catalog.Column{Name: "a", Type: catalog.Int},
		catalog.Column{Name: "b", Type: catalog.Int},
	)); err != nil {
		t.Fatal(err)
	}
	db, err := storage.NewDatabase("db", schema)
	if err != nil {
		t.Fatal(err)
	}
	td := mustTable(t, db, "t")
	for i := 0; i < 100; i++ {
		if err := td.Insert(storage.Row{catalog.NewInt(int64(i % 10)), catalog.NewInt(int64(i % 4))}); err != nil {
			t.Fatal(err)
		}
	}
	td.ResetModCounter(td.ModCounter())
	return db
}

func TestMakeID(t *testing.T) {
	if got := MakeID("Orders", []string{"O_Custkey", "o_orderdate"}); got != "orders(o_custkey,o_orderdate)" {
		t.Errorf("MakeID = %q", got)
	}
	// Order matters: multi-column statistics are asymmetric.
	if MakeID("t", []string{"a", "b"}) == MakeID("t", []string{"b", "a"}) {
		t.Error("column order must be part of the ID")
	}
}

func TestCreateGetDrop(t *testing.T) {
	m := NewManager(testDB(t), histogram.MaxDiff, 0)
	st, err := m.Create("t", []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Data.Leading.Distinct != 10 {
		t.Errorf("distinct = %d", st.Data.Leading.Distinct)
	}
	if !m.Has(st.ID) || m.Get(st.ID) != st {
		t.Error("lookup after create failed")
	}
	if acct := m.Snapshot(); acct.BuildCount != 1 || acct.TotalBuildCost <= 0 {
		t.Errorf("accounting: count=%d cost=%v", acct.BuildCount, acct.TotalBuildCost)
	}
	// Idempotent create returns existing without a rebuild.
	again, err := m.Create("t", []string{"a"})
	if err != nil || again != st {
		t.Errorf("re-create returned %v, %v", again, err)
	}
	if n := m.Snapshot().BuildCount; n != 1 {
		t.Errorf("re-create rebuilt: count=%d", n)
	}
	if !m.Drop(st.ID) {
		t.Error("drop failed")
	}
	if m.Has(st.ID) || m.Drop(st.ID) {
		t.Error("statistic survived drop")
	}
	// A drop ticks the logical clock, so a statistic built afterwards is
	// stamped later than the drop.
	re, err := m.Create("t", []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if re.CreatedAt != st.CreatedAt+2 {
		t.Errorf("re-created at tick %d, want %d (create, drop, create)", re.CreatedAt, st.CreatedAt+2)
	}
}

func TestDropListLifecycle(t *testing.T) {
	m := NewManager(testDB(t), histogram.MaxDiff, 0)
	st, _ := m.Create("t", []string{"a"})
	if !m.AddToDropList(st.ID) {
		t.Fatal("AddToDropList failed")
	}
	if len(m.Maintained()) != 0 || len(m.DropList()) != 1 {
		t.Error("drop-list membership wrong")
	}
	// §5: a drop-listed statistic is resurrected by Create without rebuild.
	buildCount := m.Snapshot().BuildCount
	re, err := m.Create("t", []string{"a"})
	if err != nil || re.InDropList {
		t.Errorf("resurrect: %v, inDropList=%v", err, re.InDropList)
	}
	if m.Snapshot().BuildCount != buildCount {
		t.Error("resurrection must not rebuild")
	}
	// Physically dropping the drop-list leaves maintained statistics alone.
	kept, _ := m.Create("t", []string{"b"})
	m.AddToDropList(st.ID)
	for _, s := range m.DropList() {
		m.Drop(s.ID)
	}
	if m.Has(st.ID) || !m.Has(kept.ID) {
		t.Errorf("after dropping the drop-list: listed exists=%v, maintained exists=%v", m.Has(st.ID), m.Has(kept.ID))
	}
	if m.AddToDropList(ID("t(zzz)")) {
		t.Error("AddToDropList on unknown should fail")
	}
}

func TestRefreshAccountingAndDropListSkip(t *testing.T) {
	m := NewManager(testDB(t), histogram.MaxDiff, 0)
	a, _ := m.Create("t", []string{"a"})
	b, _ := m.Create("t", []string{"b"})
	m.AddToDropList(b.ID)
	m.ResetAccounting()
	n, _, err := m.refreshTableCost(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("refreshed %d stats, want 1 (drop-listed skipped)", n)
	}
	// Refresh replaces the published Statistic; re-fetch for fresh state.
	if got := m.Get(a.ID).UpdateCount; got != 1 {
		t.Errorf("a.UpdateCount = %d, want 1", got)
	}
	if got := m.Get(b.ID).UpdateCount; got != 0 {
		t.Errorf("b.UpdateCount = %d, want 0", got)
	}
	if m.Snapshot().TotalUpdateCost <= 0 {
		t.Error("update cost not charged")
	}
	if err := m.Refresh(context.Background(), ID("t(zzz)")); err == nil {
		t.Error("refresh of unknown statistic should error")
	}
}

// TestRefreshChargesOnlyUpdateAccounting is the regression test for the
// double-counting bug: Refresh used to delegate to the build path, bumping
// TotalBuildCost/TotalBuildTime/BuildCount AND the update-side counters,
// inflating the Table-1 creation metrics on every maintenance cycle.
func TestRefreshChargesOnlyUpdateAccounting(t *testing.T) {
	m := NewManager(testDB(t), histogram.MaxDiff, 0)
	st, err := m.Create("t", []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	before := m.Snapshot()
	if before.BuildCount != 1 || before.TotalBuildCost <= 0 {
		t.Fatalf("setup accounting: %+v", before)
	}
	if err := m.Refresh(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	after := m.Snapshot()
	if after.BuildCount != before.BuildCount {
		t.Errorf("Refresh changed BuildCount: %d -> %d", before.BuildCount, after.BuildCount)
	}
	if after.TotalBuildCost != before.TotalBuildCost {
		t.Errorf("Refresh changed TotalBuildCost: %v -> %v", before.TotalBuildCost, after.TotalBuildCost)
	}
	if after.TotalBuildTime != before.TotalBuildTime {
		t.Errorf("Refresh changed TotalBuildTime: %v -> %v", before.TotalBuildTime, after.TotalBuildTime)
	}
	if after.UpdateOpCount != 1 || after.TotalUpdateCost <= 0 {
		t.Errorf("Refresh must charge the update side: %+v", after)
	}
}

// TestEpochBumpsOnMutations: every observable statistics mutation must
// advance the epoch, and read-only calls must not.
func TestEpochBumpsOnMutations(t *testing.T) {
	m := NewManager(testDB(t), histogram.MaxDiff, 0)
	e0 := m.Epoch()
	st, err := m.Create("t", []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	e1 := m.Epoch()
	if e1 <= e0 {
		t.Errorf("Create did not bump epoch: %d -> %d", e0, e1)
	}
	// Idempotent create of an existing, maintained statistic: no change.
	if _, err := m.Create("t", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != e1 {
		t.Errorf("no-op Create bumped epoch: %d -> %d", e1, m.Epoch())
	}
	m.All()
	m.StatsForColumn("t", "a")
	if m.Epoch() != e1 {
		t.Error("read-only calls must not bump the epoch")
	}
	if !m.AddToDropList(st.ID) {
		t.Fatal("AddToDropList failed")
	}
	e2 := m.Epoch()
	if e2 <= e1 {
		t.Error("AddToDropList did not bump epoch")
	}
	// Resurrection via Create is a visibility change too.
	if _, err := m.Create("t", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	e3 := m.Epoch()
	if e3 <= e2 {
		t.Error("resurrecting Create did not bump epoch")
	}
	if err := m.Refresh(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	e4 := m.Epoch()
	if e4 <= e3 {
		t.Error("Refresh did not bump epoch")
	}
	if !m.Drop(st.ID) {
		t.Fatal("drop failed")
	}
	if m.Epoch() <= e4 {
		t.Error("Drop did not bump epoch")
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

func TestStatsForColumnOrdering(t *testing.T) {
	m := NewManager(testDB(t), histogram.MaxDiff, 0)
	_, _ = m.Create("t", []string{"a", "b"})
	_, _ = m.Create("t", []string{"a"})
	got := m.StatsForColumn("t", "a")
	if len(got) != 2 {
		t.Fatalf("StatsForColumn found %d", len(got))
	}
	if len(got[0].Columns) != 1 {
		t.Error("single-column statistic must sort first (most precise)")
	}
	// Leading column must match: stat (a,b) does not serve column b.
	if n := len(m.StatsForColumn("t", "b")); n != 0 {
		t.Errorf("StatsForColumn(b) = %d, want 0", n)
	}
}

func TestMaintenancePolicy(t *testing.T) {
	db := testDB(t)
	m := NewManager(db, histogram.MaxDiff, 0)
	a, _ := m.Create("t", []string{"a"})
	p := MaintenancePolicy{UpdateFraction: 0.2, MaxUpdates: 1, DropListOnly: true}

	// Below threshold: nothing happens.
	rep, err := m.RunMaintenance(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TablesRefreshed != 0 {
		t.Errorf("unexpected refresh: %+v", rep)
	}

	// The counter is the only refresh trigger. A skew shift that rewrites
	// 15 % of the rows moves probability mass the histogram no longer sees,
	// yet the counter stays silent and the stale statistic stays published.
	td := mustTable(t, db, "t")
	update := func(from, to int) {
		t.Helper()
		ids := make([]int, 0, to-from)
		for id := from; id < to; id++ {
			ids = append(ids, id)
		}
		if n, err := td.Update(func(storage.View) ([]int, error) { return ids, nil }, 0, catalog.NewInt(9)); err != nil || n != len(ids) {
			t.Fatalf("updated %d of %d rows", n, len(ids))
		}
	}
	update(0, 15)
	if rep, err = m.RunMaintenance(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if rep.TablesRefreshed != 0 || m.Get(a.ID) != a {
		t.Errorf("15 %% rewrite refreshed: %+v", rep)
	}
	// The boundary is strict: counter = 0.2·rows (20 of 100) does not
	// refresh, 21 does.
	update(15, 20)
	if rep, err = m.RunMaintenance(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if rep.TablesRefreshed != 0 || td.ModCounter() != 20 {
		t.Errorf("counter at the threshold refreshed: %+v, counter %d", rep, td.ModCounter())
	}
	update(20, 21)
	if rep, err = m.RunMaintenance(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if rep.TablesRefreshed != 1 || rep.StatsRefreshed != 1 || td.ModCounter() != 0 {
		t.Errorf("counter past the threshold: %+v, counter %d", rep, td.ModCounter())
	}

	// Cross the modification threshold by inserting.
	for i := 0; i < 40; i++ {
		_ = td.Insert(storage.Row{catalog.NewInt(1), catalog.NewInt(1)})
	}
	rep, err = m.RunMaintenance(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TablesRefreshed != 1 || rep.StatsRefreshed != 1 {
		t.Errorf("refresh pass: %+v", rep)
	}
	if td.ModCounter() != 0 {
		t.Error("mod counter should reset after refresh")
	}

	// Over-updated but NOT drop-listed: protected by DropListOnly.
	// Refresh replaced the published Statistic, so re-fetch the live one.
	a = m.Get(a.ID)
	a.UpdateCount = 5
	rep, _ = m.RunMaintenance(context.Background(), p)
	if rep.StatsDropped != 0 {
		t.Error("DropListOnly policy dropped a maintained statistic")
	}
	m.AddToDropList(a.ID)
	rep, _ = m.RunMaintenance(context.Background(), p)
	if rep.StatsDropped != 1 {
		t.Errorf("expected drop of over-updated drop-listed statistic: %+v", rep)
	}

	// Without DropListOnly (stock SQL Server 7.0), any over-updated
	// statistic is dropped.
	b, _ := m.Create("t", []string{"b"})
	b.UpdateCount = 5
	rep, _ = m.RunMaintenance(context.Background(), MaintenancePolicy{UpdateFraction: 0.2, MaxUpdates: 1})
	if rep.StatsDropped != 1 {
		t.Errorf("stock policy should drop over-updated statistic: %+v", rep)
	}
}

func TestMaintenanceCostUnits(t *testing.T) {
	m := NewManager(testDB(t), histogram.MaxDiff, 0)
	_, _ = m.Create("t", []string{"a"})
	c1 := m.MaintenanceCostUnits()
	if c1 <= 0 {
		t.Fatal("maintenance cost should be positive")
	}
	st2, _ := m.Create("t", []string{"a", "b"})
	c2 := m.MaintenanceCostUnits()
	if c2 <= c1 {
		t.Error("more maintained statistics must cost more")
	}
	m.AddToDropList(st2.ID)
	if got := m.MaintenanceCostUnits(); got != c1 {
		t.Errorf("drop-listed statistic still charged: %v vs %v", got, c1)
	}
}

func TestDropAllAndAll(t *testing.T) {
	m := NewManager(testDB(t), histogram.MaxDiff, 0)
	_, _ = m.Create("t", []string{"a"})
	_, _ = m.Create("t", []string{"b"})
	all := m.All()
	if len(all) != 2 || all[0].ID > all[1].ID {
		t.Errorf("All() not sorted: %v", all)
	}
	if got := len(m.StatsOnTable("t")); got != 2 {
		t.Errorf("StatsOnTable = %d", got)
	}
	m.dropAll()
	if len(m.All()) != 0 {
		t.Error("dropAll left statistics behind")
	}
}
