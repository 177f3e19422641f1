package datagen

import (
	"math"
	"math/rand"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/storage"
)

func TestSchemaShape(t *testing.T) {
	s := tpcdSchema()
	if got := len(s.TableNames()); got != 8 {
		t.Errorf("TPC-D has 8 tables, got %d", got)
	}
	if got := len(s.Indexes); got != 13 {
		t.Errorf("tuned schema has 13 indexes, got %d", got)
	}
	li, err := s.Table("lineitem")
	if err != nil || len(li.Columns) != 16 {
		t.Errorf("lineitem: %v, %d columns", err, len(li.Columns))
	}
	if li.PrimaryKey != "" {
		t.Error("lineitem has no single-column PK")
	}
	o, _ := s.Table("orders")
	if o.PrimaryKey != "o_orderkey" {
		t.Errorf("orders PK = %q", o.PrimaryKey)
	}
}

func TestZipfUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := newZipf(rng, 10, 0)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[z.next()]++
	}
	for r, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("uniform rank %d drawn %d times (expect ~1000)", r, c)
		}
	}
}

func TestZipfSkewIncreasesWithZ(t *testing.T) {
	top1 := func(zv float64) float64 {
		rng := rand.New(rand.NewSource(2))
		z := newZipf(rng, 100, zv)
		hits := 0
		const n = 20000
		for i := 0; i < n; i++ {
			if z.next() == 0 {
				hits++
			}
		}
		return float64(hits) / n
	}
	f0, f1, f2, f4 := top1(0), top1(1), top1(2), top1(4)
	if !(f0 < f1 && f1 < f2 && f2 < f4) {
		t.Errorf("top-rank frequency must grow with z: %v %v %v %v", f0, f1, f2, f4)
	}
	if f4 < 0.9 {
		t.Errorf("z=4 should concentrate almost all mass on rank 0, got %v", f4)
	}
	if math.Abs(f0-0.01) > 0.01 {
		t.Errorf("z=0 top rank should be ~1/100, got %v", f0)
	}
}

func TestZipfDomainBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	z := newZipf(rng, 7, 3)
	for i := 0; i < 1000; i++ {
		if r := z.next(); r < 0 || r >= 7 {
			t.Fatalf("rank %d out of [0,7)", r)
		}
	}
	one := newZipf(rng, 0, 2) // degenerate domain clamps to 1
	if one.n != 1 || one.next() != 0 {
		t.Error("degenerate domain should clamp to a single rank")
	}
}

func TestGenerateRowCounts(t *testing.T) {
	db, err := Generate(Config{Scale: 1, Z: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"region": 5, "nation": 25, "supplier": 10, "customer": 150,
		"part": 200, "partsupp": 800, "orders": 1500, "lineitem": 6000,
	}
	for tbl, n := range want {
		if got := mustTable(t, db, tbl).RowCount(); got != n {
			t.Errorf("%s rows = %d, want %d", tbl, got, n)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Scale: 0.25, Z: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Scale: 0.25, Z: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range a.Schema.TableNames() {
		ra, _ := mustTable(t, a, tbl).ColumnValues(mustTable(t, a, tbl).Schema.Columns[0].Name)
		rb, _ := mustTable(t, b, tbl).ColumnValues(mustTable(t, b, tbl).Schema.Columns[0].Name)
		if len(ra) != len(rb) {
			t.Fatalf("%s row counts differ", tbl)
		}
		for i := range ra {
			if ra[i].Compare(rb[i]) != 0 {
				t.Fatalf("%s row %d differs", tbl, i)
			}
		}
	}
}

// TestForeignKeyIntegrity: every FK value must reference an existing parent
// key, and partsupp pairs must be unique with lineitem referencing them.
func TestForeignKeyIntegrity(t *testing.T) {
	db, err := Generate(Config{Scale: 0.5, Z: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, fk := range db.Schema.ForeignKeys {
		parents := map[int64]bool{}
		pv, err := mustTable(t, db, fk.RefTable).ColumnValues(fk.RefColumn)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range pv {
			parents[v.I] = true
		}
		cv, err := mustTable(t, db, fk.Table).ColumnValues(fk.Column)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range cv {
			if !parents[v.I] {
				t.Fatalf("FK violation: %s.%s=%d has no parent in %s.%s", fk.Table, fk.Column, v.I, fk.RefTable, fk.RefColumn)
			}
		}
	}

	// partsupp (partkey, suppkey) pairs unique.
	ps, err := mustTable(t, db, "partsupp").MultiColumnValues([]string{"ps_partkey", "ps_suppkey"})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int64]bool{}
	for _, p := range ps {
		k := [2]int64{p[0].I, p[1].I}
		if seen[k] {
			t.Fatalf("duplicate partsupp pair %v", k)
		}
		seen[k] = true
	}
	// lineitem pairs reference existing partsupp pairs.
	li, err := mustTable(t, db, "lineitem").MultiColumnValues([]string{"l_partkey", "l_suppkey"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range li {
		if !seen[[2]int64{p[0].I, p[1].I}] {
			t.Fatalf("lineitem pair (%d,%d) not in partsupp", p[0].I, p[1].I)
		}
	}
}

func TestGenerateSkewShowsInData(t *testing.T) {
	uniform, _ := Generate(Config{Scale: 1, Z: 0, Seed: 7})
	skewed, _ := Generate(Config{Scale: 1, Z: 2, Seed: 7})
	top := func(db *storage.Database) float64 {
		vals, _ := mustTable(t, db, "orders").ColumnValues("o_custkey")
		counts := map[int64]int{}
		best := 0
		for _, v := range vals {
			counts[v.I]++
			if counts[v.I] > best {
				best = counts[v.I]
			}
		}
		return float64(best) / float64(len(vals))
	}
	if top(skewed) < 3*top(uniform) {
		t.Errorf("z=2 hot key share %v should far exceed uniform %v", top(skewed), top(uniform))
	}
}

func TestConfigByName(t *testing.T) {
	for _, name := range DatabaseNames() {
		cfg, err := ConfigByName(name)
		if err != nil {
			t.Errorf("ConfigByName(%q): %v", name, err)
		}
		if name == "TPCD_MIX" && !cfg.Mix {
			t.Error("TPCD_MIX should set Mix")
		}
	}
	if _, err := ConfigByName("TPCD_9"); err == nil {
		t.Error("expected error for unknown database name")
	}
}

func TestStringPoolsSane(t *testing.T) {
	if len(partTypes) != 150 {
		t.Errorf("part types = %d, want 150", len(partTypes))
	}
	if len(brands) != 25 {
		t.Errorf("brands = %d, want 25", len(brands))
	}
	if len(nationNames) != 25 || len(regionNames) != 5 {
		t.Error("nation/region name pools wrong")
	}
}

func TestDatesWithinBenchmarkRange(t *testing.T) {
	db, _ := Generate(Config{Scale: 0.25, Z: 1, Seed: 2})
	vals, _ := mustTable(t, db, "orders").ColumnValues("o_orderdate")
	for _, v := range vals {
		if v.T != catalog.Date || v.I < startDate || v.I >= startDate+dateSpan {
			t.Fatalf("order date %v out of range", v)
		}
	}
}
