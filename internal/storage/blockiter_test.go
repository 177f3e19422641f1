package storage

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"autostats/internal/catalog"
)

func blockIterTable(t *testing.T, rows int) *TableData {
	t.Helper()
	schema := catalog.NewSchema()
	if err := schema.AddTable(catalog.NewTable("t",
		catalog.Column{Name: "a", Type: catalog.Int},
		catalog.Column{Name: "b", Type: catalog.Int},
		catalog.Column{Name: "c", Type: catalog.String},
	)); err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase("db", schema)
	if err != nil {
		t.Fatal(err)
	}
	td, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		r := Row{
			catalog.NewInt(int64(i)),
			catalog.NewInt(int64(i % 7)),
			catalog.NewString(fmt.Sprintf("s%d", i%3)),
		}
		if err := td.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return td
}

// drain collects every block, copying tuples out of the reused buffer.
func drain(it *BlockIter) [][]catalog.Datum {
	var out [][]catalog.Datum
	for {
		block, ok := it.Next()
		if !ok {
			return out
		}
		for _, tup := range block {
			out = append(out, append([]catalog.Datum(nil), tup...))
		}
	}
}

// TestBlockIterMatchesGather: the concatenated blocks must equal the
// one-shot MultiColumnValues projection — same tuples, same order — at every
// block size, including sizes that do not divide the row count and after
// deletions punched holes in the row IDs.
func TestBlockIterMatchesGather(t *testing.T) {
	td := blockIterTable(t, 157)
	// Tombstone a scattered subset so blocks must skip dead rows.
	var dead []int
	for id := 3; id < 157; id += 11 {
		dead = append(dead, id)
	}
	td.Delete(dead)

	cols := []string{"b", "c"}
	want, err := td.MultiColumnValues(cols)
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{1, 2, 7, 64, 1000} {
		it, err := td.OpenBlockIter(cols, bs)
		if err != nil {
			t.Fatal(err)
		}
		if it.LiveRows() != len(want) {
			t.Errorf("block=%d: LiveRows=%d want %d", bs, it.LiveRows(), len(want))
		}
		got := drain(it)
		it.Close()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("block=%d: streamed tuples differ from one-shot gather", bs)
		}
	}
}

// TestBlockIterSnapshotGuard: a writer started while the iterator is open
// must not affect the scan — the guard holds it off until Close, after
// which the write lands.
func TestBlockIterSnapshotGuard(t *testing.T) {
	td := blockIterTable(t, 40)
	it, err := td.OpenBlockIter([]string{"a"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n := td.OpenSnapshots(); n != 1 {
		t.Fatalf("OpenSnapshots=%d after open", n)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Blocks until the snapshot guard is released.
		td.Insert(Row{catalog.NewInt(999), catalog.NewInt(0), catalog.NewString("x")})
	}()
	got := drain(it)
	if len(got) != 40 {
		t.Errorf("scan saw %d rows, want the 40 of the snapshot", len(got))
	}
	it.Close()
	wg.Wait()
	if n := td.RowCount(); n != 41 {
		t.Errorf("RowCount=%d after guarded insert, want 41", n)
	}
	if n := td.OpenSnapshots(); n != 0 {
		t.Errorf("OpenSnapshots=%d after close", n)
	}
	// Close must be idempotent.
	it.Close()
	if n := td.OpenSnapshots(); n != 0 {
		t.Errorf("OpenSnapshots=%d after double close", n)
	}
	if _, ok := it.Next(); ok {
		t.Error("Next returned a block after Close")
	}
}

// TestBlockIterUnknownColumn: a bad column errors without leaving a guard.
func TestBlockIterUnknownColumn(t *testing.T) {
	td := blockIterTable(t, 5)
	if _, err := td.OpenBlockIter([]string{"nope"}, 4); err == nil {
		t.Fatal("no error for unknown column")
	}
	if n := td.OpenSnapshots(); n != 0 {
		t.Errorf("OpenSnapshots=%d after failed open", n)
	}
	// The table must still be writable (no lock leaked).
	if err := td.Insert(Row{catalog.NewInt(1), catalog.NewInt(1), catalog.NewString("y")}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockIterEmptyTable: zero rows yield zero blocks, not a hang.
func TestBlockIterEmptyTable(t *testing.T) {
	td := blockIterTable(t, 0)
	it, err := td.OpenBlockIter([]string{"a", "b"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if got := drain(it); len(got) != 0 {
		t.Errorf("empty table yielded %d tuples", len(got))
	}
	if it.LiveRows() != 0 {
		t.Errorf("LiveRows=%d on empty table", it.LiveRows())
	}
}
