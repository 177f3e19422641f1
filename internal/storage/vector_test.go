package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"autostats/internal/catalog"
)

// vecSchema has a column of every type, indexed and unindexed.
func vecSchema() *catalog.Table {
	return catalog.NewTable("v",
		catalog.Column{Name: "i", Type: catalog.Int},
		catalog.Column{Name: "f", Type: catalog.Float},
		catalog.Column{Name: "s", Type: catalog.String},
		catalog.Column{Name: "d", Type: catalog.Date},
		catalog.Column{Name: "u", Type: catalog.Int},
		catalog.Column{Name: "g", Type: catalog.Float},
	)
}

// vecIndexed names vecSchema's indexed columns; d, u and g are not.
var vecIndexed = []string{"i", "f", "s"}

func newVecTable(t *testing.T) *TableData {
	t.Helper()
	td := newTableData(vecSchema())
	for _, c := range vecIndexed {
		if err := td.createIndex(c); err != nil {
			t.Fatal(err)
		}
	}
	return td
}

// randDatum draws from a small domain of typ, so that values tie, with NULL,
// NaN and -0 among them.
func randDatum(rng *rand.Rand, typ catalog.Type) catalog.Datum {
	if rng.Intn(8) == 0 {
		return catalog.NewNull(typ)
	}
	switch typ {
	case catalog.Float:
		return catalog.NewFloat([]float64{-1, 0, math.Copysign(0, -1), 1.5, math.NaN(), 2}[rng.Intn(6)])
	case catalog.String:
		return catalog.NewString([]string{"", "a", "ab", "b"}[rng.Intn(4)])
	case catalog.Date:
		return catalog.NewDate(int64(rng.Intn(4)))
	default:
		return catalog.NewInt(int64(rng.Intn(6) - 2))
	}
}

func randRow(rng *rand.Rand, schema *catalog.Table) Row {
	r := make(Row, len(schema.Columns))
	for i, c := range schema.Columns {
		r[i] = randDatum(rng, c.Type)
	}
	return r
}

// sameDatum is == with every float compared by its bits, so that a NaN
// equals itself and -0 differs from 0.
func sameDatum(a, b catalog.Datum) bool {
	return a.T == b.T && a.Null == b.Null && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

// inRange reports whether d lies in the seek range, by catalog.Datum.Compare.
func inRange(d catalog.Datum, lo, hi *catalog.Datum, loInc, hiInc bool) bool {
	if lo != nil {
		if c := d.Compare(*lo); c < 0 || c == 0 && !loInc {
			return false
		}
	}
	if hi != nil {
		if c := d.Compare(*hi); c > 0 || c == 0 && !hiInc {
			return false
		}
	}
	return true
}

// checkVectors holds the invariants every write must keep: each vector
// reads back its row's datum, each index is the live rows stably sorted by
// the rows' values, and each seek visits what a filtered scan, in index
// order, does.
func checkVectors(t *testing.T, td *TableData, rng *rand.Rand, step string) {
	t.Helper()
	for id, r := range td.rows {
		for c := range td.cols {
			if got := td.cols[c].datum(id); !sameDatum(got, r[c]) {
				t.Fatalf("%s: row %d column %s: vector reads %+v, row holds %+v", step, id, td.Schema.Columns[c].Name, got, r[c])
			}
		}
	}
	for _, col := range vecIndexed {
		ci := td.Schema.ColumnIndex(col)
		var want []int
		td.Scan(func(id int, _ Row) bool { want = append(want, id); return true })
		slices.SortStableFunc(want, func(a, b int) int { return td.rows[a][ci].Compare(td.rows[b][ci]) })
		var got []int
		for _, id := range td.indexes[col].ids {
			if !td.dead[id] {
				got = append(got, int(id))
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: index on %s holds live rows %v, want %v", step, col, got, want)
		}
		for range 3 {
			var lo, hi *catalog.Datum
			if rng.Intn(4) > 0 {
				d := randDatum(rng, td.Schema.Columns[ci].Type)
				lo = &d
			}
			if rng.Intn(4) > 0 {
				d := randDatum(rng, td.Schema.Columns[ci].Type)
				hi = &d
			}
			loInc, hiInc := rng.Intn(2) == 0, rng.Intn(2) == 0
			var scanned []int
			for _, id := range want {
				if inRange(td.rows[id][ci], lo, hi, loInc, hiInc) {
					scanned = append(scanned, id)
				}
			}
			if seeked := seekIDs(t, td, col, lo, hi, loInc, hiInc); !slices.Equal(seeked, scanned) {
				t.Fatalf("%s: seek on %s over %v..%v (%v, %v) visits %v, the filtered scan %v", step, col, lo, hi, loInc, hiInc, seeked, scanned)
			}
		}
	}
}

// TestVectorsMatchRows runs random sequences of BulkLoad, Insert, Update
// (of indexed and unindexed columns, lent and unlent rows) and Delete, and
// checks after each step that vectors, rows and indexes agree.
func TestVectorsMatchRows(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		td := newVecTable(t)
		for step := 0; step < 60; step++ {
			live := func() []int {
				var ids []int
				td.Scan(func(id int, _ Row) bool { ids = append(ids, id); return true })
				return ids
			}
			pick := func() []int {
				var ids []int
				for _, id := range live() {
					if rng.Intn(3) == 0 {
						ids = append(ids, id)
					}
				}
				rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
				return ids
			}
			var what string
			switch op := rng.Intn(20); {
			case op == 0 || step == 0:
				rows := make([]Row, rng.Intn(40))
				for i := range rows {
					rows[i] = randRow(rng, td.Schema)
				}
				what = fmt.Sprintf("bulk load of %d rows", len(rows))
				if err := td.BulkLoad(rows); err != nil {
					t.Fatal(err)
				}
			case op < 8:
				r := randRow(rng, td.Schema)
				what = fmt.Sprintf("insert %v", r)
				if err := td.Insert(r); err != nil {
					t.Fatal(err)
				}
			case op < 10:
				if rng.Intn(2) == 0 {
					lendAll(td)
				}
				ids := pick()
				what = fmt.Sprintf("delete %v", ids)
				deleteIDs(td, ids...)
			case op < 12:
				for _, id := range pick() {
					td.Scan(func(got int, _ Row) bool {
						if got == id {
							td.Lend(id)
						}
						return got < id
					})
				}
				fallthrough
			default:
				col := rng.Intn(len(td.Schema.Columns))
				v := randDatum(rng, td.Schema.Columns[col].Type)
				ids := pick()
				what = fmt.Sprintf("update %s = %v of %v", td.Schema.Columns[col].Name, v, ids)
				updateIDs(td, col, v, ids...)
			}
			checkVectors(t, td, rng, fmt.Sprintf("seed %d step %d (%s)", seed, step, what))
		}
	}
}

// TestVectorsMatchRowsConcurrent runs writers against a table while a
// reader drains BlockIters over it and checks every block against the rows
// it was read from, under the same snapshot guard. Under -race, a write that
// a block reader can see fails it.
func TestVectorsMatchRowsConcurrent(t *testing.T) {
	td := newVecTable(t)
	rng := rand.New(rand.NewSource(1))
	rows := make([]Row, 500)
	for i := range rows {
		rows[i] = randRow(rng, td.Schema)
	}
	if err := td.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	cols := []string{"g", "s", "i", "d"}
	ords := make([]int, len(cols))
	for i, c := range cols {
		ords[i] = td.Schema.ColumnIndex(c)
	}
	const writers, writes = 2, 300
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 2)))
			for range writes {
				id := rng.Intn(500)
				switch rng.Intn(4) {
				case 0:
					if err := td.Insert(randRow(rng, td.Schema)); err != nil {
						t.Error(err)
						return
					}
				case 1:
					deleteIDs(td, id)
				default:
					col := rng.Intn(len(td.Schema.Columns))
					updateIDs(td, col, randDatum(rng, td.Schema.Columns[col].Type), id, id+1)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for scans := 0; ; scans++ {
		select {
		case <-done:
			if scans == 0 {
				t.Fatal("no scan ran beside the writers")
			}
			return
		default:
		}
		it, err := td.OpenBlockIter(cols, 64)
		if err != nil {
			t.Fatal(err)
		}
		for {
			block, ok := it.Next()
			if !ok {
				break
			}
			for k, tuple := range block {
				r := td.rows[it.ids[k]]
				for i, o := range ords {
					if !sameDatum(tuple[i], r[o]) {
						it.Close()
						t.Fatalf("scan %d: row %d column %s: block has %+v, row %+v", scans, it.ids[k], cols[i], tuple[i], r[o])
					}
				}
			}
		}
		it.Close()
	}
}

// TestStoreRejectsNonCanonicalDatums: Insert, BulkLoad and Update take only
// the datums the column type's constructor builds, and a refused write
// leaves the table as it was.
func TestStoreRejectsNonCanonicalDatums(t *testing.T) {
	good := Row{catalog.NewInt(1), catalog.NewFloat(1.5), catalog.NewString("a"),
		catalog.NewDate(3), catalog.NewNull(catalog.Int), catalog.NewFloat(math.NaN())}
	cases := []struct {
		name string
		col  int
		d    catalog.Datum
	}{
		{"int in a float column", 1, catalog.NewInt(1)},
		{"float in an int column", 0, catalog.NewFloat(1)},
		{"date in an int column", 0, catalog.NewDate(1)},
		{"int in a date column", 3, catalog.NewInt(1)},
		{"string in an int column", 0, catalog.NewString("1")},
		{"int with a float payload", 0, catalog.Datum{T: catalog.Int, I: 1, F: 2}},
		{"int with a -0 float payload", 0, catalog.Datum{T: catalog.Int, F: math.Copysign(0, -1)}},
		{"int with a string payload", 0, catalog.Datum{T: catalog.Int, S: "x"}},
		{"float with an int payload", 1, catalog.Datum{T: catalog.Float, F: 1, I: 1}},
		{"string with an int payload", 2, catalog.Datum{T: catalog.String, S: "a", I: 1}},
		{"string with a float payload", 2, catalog.Datum{T: catalog.String, F: 1}},
		{"date with a string payload", 3, catalog.Datum{T: catalog.Date, I: 1, S: "x"}},
		{"NULL of another type", 2, catalog.NewNull(catalog.Int)},
		{"NULL of no type", 1, catalog.Datum{Null: true}},
		{"NULL with a payload", 0, catalog.Datum{T: catalog.Int, Null: true, I: 7}},
		{"unknown type", 0, catalog.Datum{T: catalog.Type(9)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			td := newVecTable(t)
			if err := td.BulkLoad([]Row{slices.Clone(good)}); err != nil {
				t.Fatal(err)
			}
			bad := slices.Clone(good)
			bad[tc.col] = tc.d
			want := td.Schema.Columns[tc.col].Name
			for op, err := range map[string]error{
				"insert":    td.Insert(bad),
				"bulk load": td.BulkLoad([]Row{slices.Clone(good), bad}),
				"update": func() error {
					_, err := td.Update(func(View) ([]int, error) { return []int{0}, nil }, tc.col, tc.d)
					return err
				}(),
			} {
				if err == nil || !strings.Contains(err.Error(), "column "+want) {
					t.Errorf("%s of %+v into column %s: error %v, want one naming the column", op, tc.d, want, err)
				}
			}
			if n, v := td.RowCount(), td.contentVersion(); n != 1 || v != 1 {
				t.Errorf("after the refused writes: %d rows at version %d, want 1 at 1", n, v)
			}
			if r := rowOf(td, 0); !slices.EqualFunc(r, good, sameDatum) {
				t.Errorf("after the refused writes, row 0 is %v, want %v", r, good)
			}
		})
	}
}

// TestRowLimit: a table refuses rows whose IDs would not fit its indexes.
func TestRowLimit(t *testing.T) {
	defer func(n int) { maxRows = n }(maxRows)
	maxRows = 3
	td := newVecTable(t)
	rng := rand.New(rand.NewSource(1))
	rows := make([]Row, 4)
	for i := range rows {
		rows[i] = randRow(rng, td.Schema)
	}
	if err := td.BulkLoad(rows); err == nil {
		t.Error("bulk load of 4 rows with a limit of 3 succeeded")
	}
	if err := td.BulkLoad(rows[:3]); err != nil {
		t.Fatal(err)
	}
	if err := td.Insert(rows[3]); err == nil {
		t.Error("insert of a 4th row with a limit of 3 succeeded")
	}
	if n := td.RowCount(); n != 3 {
		t.Errorf("%d rows after the refused insert, want 3", n)
	}
}
