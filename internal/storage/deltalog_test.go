package storage

import (
	"testing"

	"autostats/internal/catalog"
)

// TestDeltaLogDisabledByDefault: with the log off, DML pays nothing and
// DeltaWindow always reports unavailable so callers fall back to rebuilds.
func TestDeltaLogDisabledByDefault(t *testing.T) {
	td := NewTableData(empSchema())
	if td.DeltaLogEnabled() {
		t.Fatal("delta log enabled by default")
	}
	if err := td.Insert(row(1, 100, "a")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := td.DeltaWindow(0); ok {
		t.Fatal("DeltaWindow ok with the log disabled")
	}
}

// TestDeltaLogRecordsDML: inserts, deletes and updates log copy-on-write
// records replaying exactly the modifications since a watermark.
func TestDeltaLogRecordsDML(t *testing.T) {
	td := NewTableData(empSchema())
	if err := td.Insert(row(1, 100, "a")); err != nil {
		t.Fatal(err)
	}
	td.EnableDeltaLog(0)
	since := td.DeltaSeq()

	if err := td.Insert(row(2, 200, "b")); err != nil {
		t.Fatal(err)
	}
	td.Delete([]int{0})
	td.Update([]int{1}, 1, catalog.NewFloat(250))

	recs, next, ok := td.DeltaWindow(since)
	if !ok {
		t.Fatal("window unavailable")
	}
	if len(recs) != 4 { // insert, delete, update = del-old + ins-new
		t.Fatalf("logged %d records, want 4", len(recs))
	}
	if recs[0].Del || recs[0].Row[0].I != 2 {
		t.Fatalf("rec0 = %+v, want insert of id 2", recs[0])
	}
	if !recs[1].Del || recs[1].Row[0].I != 1 {
		t.Fatalf("rec1 = %+v, want delete of id 1", recs[1])
	}
	if !recs[2].Del || recs[2].Row[1].F != 200 {
		t.Fatalf("rec2 = %+v, want delete of pre-update row (salary 200)", recs[2])
	}
	if recs[3].Del || recs[3].Row[1].F != 250 {
		t.Fatalf("rec3 = %+v, want insert of post-update row (salary 250)", recs[3])
	}
	if next != td.DeltaSeq() {
		t.Fatalf("next = %d, DeltaSeq = %d", next, td.DeltaSeq())
	}
	// The logged rows are copies: mutating the table again must not change
	// the already-returned record.
	td.Update([]int{1}, 1, catalog.NewFloat(999))
	if recs[3].Row[1].F != 250 {
		t.Fatal("delta record aliases live row storage")
	}
}

// TestDeltaLogEnableInvalidatesOldWatermarks: a watermark taken before
// EnableDeltaLog must not see an (empty) window — modifications made while
// the log was off were never recorded.
func TestDeltaLogEnableInvalidatesOldWatermarks(t *testing.T) {
	td := NewTableData(empSchema())
	before := td.DeltaSeq()
	td.EnableDeltaLog(0)
	if _, _, ok := td.DeltaWindow(before); ok {
		t.Fatal("pre-enable watermark still valid")
	}
	if _, _, ok := td.DeltaWindow(td.DeltaSeq()); !ok {
		t.Fatal("fresh watermark invalid")
	}
}

// TestDeltaLogTrimAndOverflow: ResetModCounter keeps head watermarks valid;
// overflow drops the buffered window but keeps consumed watermarks valid.
func TestDeltaLogTrimAndOverflow(t *testing.T) {
	td := NewTableData(empSchema())
	td.EnableDeltaLog(4)
	stale := td.DeltaSeq()
	for i := 0; i < 3; i++ {
		if err := td.Insert(row(int64(i), 1, "x")); err != nil {
			t.Fatal(err)
		}
	}
	td.ResetModCounter()
	if _, _, ok := td.DeltaWindow(stale); ok {
		t.Fatal("trimmed watermark still valid")
	}
	head := td.DeltaSeq()
	if recs, _, ok := td.DeltaWindow(head); !ok || len(recs) != 0 {
		t.Fatalf("head watermark after trim: ok=%v recs=%d", ok, len(recs))
	}

	// Overflow: cap 4, insert 6. The first trim drops the filled window;
	// watermarks inside it go stale, the pre-overflow head stays consistent.
	for i := 0; i < 6; i++ {
		if err := td.Insert(row(int64(10+i), 1, "y")); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := td.DeltaWindow(head + 2); ok {
		t.Fatal("watermark inside dropped window still valid")
	}
	recs, _, ok := td.DeltaWindow(head + 4)
	if !ok || len(recs) != 2 {
		t.Fatalf("post-overflow window: ok=%v recs=%d, want 2", ok, len(recs))
	}
}

// TestDeltaLogBulkLoadInvalidates: BulkLoad replaces content without logging,
// so every outstanding watermark must turn invalid.
func TestDeltaLogBulkLoadInvalidates(t *testing.T) {
	td := NewTableData(empSchema())
	td.EnableDeltaLog(0)
	head := td.DeltaSeq()
	if err := td.BulkLoad([]Row{row(1, 1, "a")}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := td.DeltaWindow(head); ok {
		t.Fatal("pre-bulkload watermark still valid")
	}
}

// TestMultiColumnValuesSeqMatchesLegacy: the seq variant returns the same
// tuples as MultiColumnValues.
func TestMultiColumnValuesSeqMatchesLegacy(t *testing.T) {
	td := NewTableData(empSchema())
	for i := 0; i < 5; i++ {
		if err := td.Insert(row(int64(i), float64(i), "s")); err != nil {
			t.Fatal(err)
		}
	}
	a, err := td.MultiColumnValues([]string{"salary"})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := td.MultiColumnValuesSeq([]string{"salary"})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("len %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i][0].Compare(b[i][0]) != 0 {
			t.Fatalf("tuple %d differs", i)
		}
	}
}
