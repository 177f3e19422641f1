package stats

import (
	"testing"

	"autostats/internal/storage"
)

// mustTable fetches a table the test itself created, failing the test on a
// bad name (the library API returns an error instead of panicking).
func mustTable(t testing.TB, db *storage.Database, name string) *storage.TableData {
	t.Helper()
	td, err := db.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return td
}
