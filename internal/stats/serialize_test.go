package stats

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/histogram"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	db := testDB(t)
	m := NewManager(db, histogram.MaxDiff, 0)
	a, err := m.Create("t", []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	ab, err := m.Create("t", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	m.AddToDropList(ab.ID)
	a.UpdateCount = 3

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}

	m2 := NewManager(db, histogram.MaxDiff, 0)
	if err := m2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if len(m2.All()) != 2 {
		t.Fatalf("loaded %d statistics", len(m2.All()))
	}
	la := m2.Get(a.ID)
	if la == nil || la.UpdateCount != 3 {
		t.Errorf("update count not preserved: %+v", la)
	}
	lab := m2.Get(ab.ID)
	if lab == nil || !lab.InDropList {
		t.Error("drop-list membership not preserved")
	}
	// Histogram content must survive: equality selectivity identical.
	v := catalog.NewInt(3)
	if got, want := la.Data.Leading.SelectivityEq(v), a.Data.Leading.SelectivityEq(v); got != want {
		t.Errorf("selectivity after reload %v, want %v", got, want)
	}
	if lab.Data.PrefixDensity(2) != ab.Data.PrefixDensity(2) {
		t.Error("prefix densities not preserved")
	}
	// Loading charges no build cost.
	if acct := m2.Snapshot(); acct.TotalBuildCost != 0 || acct.BuildCount != 0 {
		t.Errorf("load charged build cost: %v / %d", acct.TotalBuildCost, acct.BuildCount)
	}
}

func TestLoadRejectsBadSnapshots(t *testing.T) {
	db := testDB(t)
	m := NewManager(db, histogram.MaxDiff, 0)
	for _, bad := range []string{
		"not json",
		`{"version": 99, "statistics": []}`,
		`{"version": 1, "statistics": [{"table": "nosuch", "columns": ["x"]}]}`,
		`{"version": 1, "statistics": [{"table": "t", "columns": []}]}`,
		`{"version": 1, "statistics": [{"table": "t", "columns": ["nosuchcolumn"]}]}`,
	} {
		if err := m.Load(strings.NewReader(bad)); err == nil {
			t.Errorf("expected error for snapshot %q", bad)
		}
	}
}

// A snapshot written with other-case names loads under the canonical names,
// where the optimizer's lookups find it.
func TestLoadFoldsNames(t *testing.T) {
	db := testDB(t)
	m := NewManager(db, histogram.MaxDiff, 0)
	if _, err := m.Create("t", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap snapshotJSON
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	snap.Statistics[0].Table = "T"
	snap.Statistics[0].Columns = []string{"A"}
	upper, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}

	m2 := NewManager(db, histogram.MaxDiff, 0)
	if err := m2.Load(bytes.NewReader(upper)); err != nil {
		t.Fatal(err)
	}
	got := m2.StatsForColumn("t", "a")
	if len(got) != 1 {
		t.Fatalf("StatsForColumn(t,a) = %d statistics, want 1", len(got))
	}
	if got[0].ID != "t(a)" || got[0].Table != "t" || got[0].Data.Columns[0] != "a" {
		t.Errorf("loaded statistic %s on %s%v, want t(a) on t[a]", got[0].ID, got[0].Table, got[0].Data.Columns)
	}
}
