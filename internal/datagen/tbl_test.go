package datagen

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autostats/internal/storage"
)

func TestWriteLoadTblRoundTrip(t *testing.T) {
	db, err := Generate(Config{Scale: 0.25, Z: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteTbl(context.Background(), db, dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range db.Schema.TableNames() {
		if _, err := os.Stat(filepath.Join(dir, name+".tbl")); err != nil {
			t.Fatalf("missing %s.tbl: %v", name, err)
		}
	}
	back, err := LoadTbl(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range db.Schema.TableNames() {
		a, b := mustTable(t, db, name), mustTable(t, back, name)
		if a.RowCount() != b.RowCount() {
			t.Fatalf("%s: %d rows vs %d after reload", name, a.RowCount(), b.RowCount())
		}
		for _, col := range a.Schema.Columns {
			av, _ := a.ColumnValues(col.Name)
			bv, _ := b.ColumnValues(col.Name)
			for i := range av {
				if av[i].Compare(bv[i]) != 0 {
					t.Fatalf("%s.%s row %d: %s vs %s", name, col.Name, i, av[i], bv[i])
				}
			}
		}
		// Indexes must be rebuilt on load: a full-range seek visits every row.
		orders, seen := mustTable(t, back, "orders"), 0
		if !orders.Seek("o_orderkey", nil, nil, true, true, nil, func(int, storage.Row) bool { seen++; return true }) || seen != orders.RowCount() {
			t.Fatalf("schema indexes not rebuilt after LoadTbl: a seek saw %d of %d rows", seen, orders.RowCount())
		}
	}
}

func TestLoadTblErrors(t *testing.T) {
	if _, err := LoadTbl(t.TempDir()); err == nil {
		t.Error("expected error for missing files")
	}
	dir := t.TempDir()
	// Write a malformed file for the alphabetically first table.
	if err := os.WriteFile(filepath.Join(dir, "customer.tbl"), []byte("1|only-two-fields\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadTbl(dir)
	if err == nil || !strings.Contains(err.Error(), "fields") {
		t.Errorf("expected field-count error, got %v", err)
	}
}
