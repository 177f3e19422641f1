package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestSaveStatsKeepsSnapshotOnFailure: a save that fails partway leaves the
// previous snapshot's bytes and no temporary file; a save that succeeds
// replaces them.
func TestSaveStatsKeepsSnapshotOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stats.snap")
	if err := os.WriteFile(path, []byte("previous snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	errFull := errors.New("disk full")
	err := saveStats(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "torn"); err != nil {
			return err
		}
		return errFull
	})
	if !errors.Is(err, errFull) {
		t.Fatalf("failed save returned %v, want %v", err, errFull)
	}
	check := func(want string) {
		t.Helper()
		if b, err := os.ReadFile(path); err != nil || string(b) != want {
			t.Errorf("snapshot = %q, %v; want %q", b, err, want)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
			t.Errorf("directory holds %v, %v; want only the snapshot", entries, err)
		}
	}
	check("previous snapshot")

	if err := saveStats(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new snapshot")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	check("new snapshot")
}
