package datagen

import (
	"math/rand"

	"autostats/internal/catalog"
	"autostats/internal/storage"
)

// nullPct is the percentage of rows per nullable column GenerateWithNulls
// sets to NULL.
const nullPct = 5

// GenerateWithNulls generates cfg's database, then sets nullPct percent of
// the rows of every nullable column to NULL: the data the correctness checks
// run on, since TPC-D has no NULLs. A nullable column is numeric, carries no
// index and is on neither side of a foreign key, so join keys and seek
// columns keep their integrity. The NULLs are drawn from an RNG seeded with
// cfg.Seed alone, and the modification counters are reset afterwards.
func GenerateWithNulls(cfg Config) (*storage.Database, error) {
	db, err := Generate(cfg)
	if err != nil {
		return nil, err
	}
	type colKey struct{ table, column string }
	protected := make(map[colKey]bool)
	for _, ix := range db.Schema.Indexes {
		protected[colKey{ix.Table, ix.Column}] = true
	}
	for _, fk := range db.Schema.ForeignKeys {
		protected[colKey{fk.Table, fk.Column}] = true
		protected[colKey{fk.RefTable, fk.RefColumn}] = true
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, name := range db.Schema.TableNames() {
		td, err := db.Table(name)
		if err != nil {
			return nil, err
		}
		var ids []int
		td.Scan(func(id int, _ storage.Row) bool {
			ids = append(ids, id)
			return true
		})
		nulled := false
		for pos, c := range td.Schema.Columns {
			if (c.Type != catalog.Int && c.Type != catalog.Float) || protected[colKey{td.Schema.Name, c.Name}] {
				continue
			}
			nulled = true
			var hit []int
			for _, id := range ids {
				if rng.Intn(100) < nullPct {
					hit = append(hit, id)
				}
			}
			if _, err := td.Update(func(storage.View) ([]int, error) { return hit, nil }, pos, catalog.NewNull(c.Type)); err != nil {
				return nil, err
			}
		}
		if nulled {
			td.ResetModCounter(td.ModCounter())
		}
	}
	return db, nil
}
