package stats

import (
	"bytes"
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
	} {
		if err := m.Load(strings.NewReader(bad)); err == nil {
			t.Errorf("expected error for snapshot %q", bad)
		}
	}
}
