package optimizer

import (
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/histogram"
	"autostats/internal/query"
	"autostats/internal/stats"
	"autostats/internal/storage"
)

// boundarySession builds a session over a hand-constructed single-table
// database so each boundary distribution (empty, single-value, all-NULL,
// mixed) is exact rather than sampled.
func boundarySession(t *testing.T, rows []storage.Row) (*Session, *stats.Manager) {
	t.Helper()
	schema := catalog.NewSchema()
	tab := catalog.NewTable("b",
		catalog.Column{Name: "k", Type: catalog.Int},
		catalog.Column{Name: "v", Type: catalog.Int},
	)
	tab.PrimaryKey = "k"
	if err := schema.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	db, err := storage.NewDatabase("boundary", schema)
	if err != nil {
		t.Fatal(err)
	}
	td, err := db.Table("b")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) > 0 {
		if err := td.BulkLoad(rows); err != nil {
			t.Fatal(err)
		}
	}
	mgr := stats.NewManager(db, histogram.MaxDiff, 0)
	if _, err := mgr.Create("b", []string{"v"}); err != nil {
		t.Fatal(err)
	}
	return NewSession(mgr), mgr
}

func filterRows(t *testing.T, sess *Session, op query.CmpOp, val int64) float64 {
	t.Helper()
	return filterRowsWhatIf(t, sess, op, val, WhatIf{})
}

// filterRowsWhatIf is filterRows under the what-if configuration w.
func filterRowsWhatIf(t *testing.T, sess *Session, op query.CmpOp, val int64, w WhatIf) float64 {
	t.Helper()
	s := &query.Select{
		Tables:     []string{"b"},
		Filters:    []query.Filter{{Col: query.ColumnRef{Table: "b", Column: "v"}, Op: op, Val: catalog.NewInt(val)}},
		GroupVarID: -1,
	}
	s.Normalize()
	p, err := sess.OptimizeWhatIf(s, w)
	if err != nil {
		t.Fatal(err)
	}
	return p.Root.EstRows
}

// TestSelectivityEmptyTable: with a statistic built over zero rows every
// estimate must stay finite and non-negative — the optimizer floors
// cardinalities rather than collapsing to NaN or negative rows.
func TestSelectivityEmptyTable(t *testing.T) {
	sess, _ := boundarySession(t, nil)
	for _, op := range []query.CmpOp{query.Eq, query.Ne, query.Lt, query.Le, query.Gt, query.Ge} {
		got := filterRows(t, sess, op, 5)
		if got != got || got < 0 { // NaN or negative
			t.Errorf("op %v over empty table estimated %v rows", op, got)
		}
		if got > 1 {
			t.Errorf("op %v over empty table estimated %v rows, want <= 1", op, got)
		}
	}
}

// TestSelectivitySingleValueColumn: the estimate for the lone value must be
// the full table; misses must floor near zero (minSelectivity), never go
// negative.
func TestSelectivitySingleValueColumn(t *testing.T) {
	var rows []storage.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, storage.Row{catalog.NewInt(int64(i)), catalog.NewInt(7)})
	}
	sess, _ := boundarySession(t, rows)
	if got := filterRows(t, sess, query.Eq, 7); got != 100 {
		t.Errorf("Eq on the lone value estimated %v rows, want 100", got)
	}
	if got := filterRows(t, sess, query.Eq, 8); got > 100*minSelectivity+1e-9 {
		t.Errorf("Eq miss estimated %v rows, want the minSelectivity floor", got)
	}
	// Ne of the lone value matches nothing; Ne of a miss matches all.
	if got := filterRows(t, sess, query.Ne, 7); got > 100*minSelectivity+1e-9 {
		t.Errorf("Ne of the lone value estimated %v rows, want floor", got)
	}
	if got := filterRows(t, sess, query.Ne, 12345); got != 100 {
		t.Errorf("Ne miss estimated %v rows, want 100", got)
	}
}

// TestSelectivityAllNullColumn: NULL never satisfies a comparison, so every
// predicate over an all-NULL column must estimate (floored) zero rows even
// though the table itself is large.
func TestSelectivityAllNullColumn(t *testing.T) {
	var rows []storage.Row
	for i := 0; i < 200; i++ {
		rows = append(rows, storage.Row{catalog.NewInt(int64(i)), catalog.NewNull(catalog.Int)})
	}
	sess, _ := boundarySession(t, rows)
	floor := 200*minSelectivity + 1e-9
	for _, op := range []query.CmpOp{query.Eq, query.Ne, query.Lt, query.Le, query.Gt, query.Ge} {
		if got := filterRows(t, sess, op, 0); got > floor {
			t.Errorf("op %v over all-NULL column estimated %v rows, want <= %v", op, got, floor)
		}
	}
}

// TestSelectivityOutOfRange: probes far outside the summarized domain must
// clamp to the floor on the empty side and the full table on the covering
// side — mirroring the histogram-level contract through the whole
// estimation path, including the NULL adjustment for Gt/Ge/Ne.
func TestSelectivityOutOfRange(t *testing.T) {
	var rows []storage.Row
	for i := 0; i < 100; i++ {
		v := catalog.NewInt(int64(10 + i%20))
		if i%4 == 0 { // 25% NULLs to exercise the NullFraction subtraction
			v = catalog.NewNull(catalog.Int)
		}
		rows = append(rows, storage.Row{catalog.NewInt(int64(i)), v})
	}
	sess, _ := boundarySession(t, rows)
	const far = int64(1) << 40
	floor := 100*minSelectivity + 1e-9
	nonNull := 75.0

	if got := filterRows(t, sess, query.Lt, -far); got > floor {
		t.Errorf("Lt far below estimated %v rows, want floor", got)
	}
	if got := filterRows(t, sess, query.Gt, far); got > floor {
		t.Errorf("Gt far above estimated %v rows, want floor", got)
	}
	// The covering side must count only non-NULL rows: NULLs fail "< huge"
	// at execution, and the estimator subtracts NullFraction accordingly.
	if got := filterRows(t, sess, query.Lt, far); got != nonNull {
		t.Errorf("Lt far above estimated %v rows, want %v (NULLs excluded)", got, nonNull)
	}
	if got := filterRows(t, sess, query.Ge, -far); got != nonNull {
		t.Errorf("Ge far below estimated %v rows, want %v (NULLs excluded)", got, nonNull)
	}
	if got := filterRows(t, sess, query.Eq, far); got > floor {
		t.Errorf("Eq far outside estimated %v rows, want floor", got)
	}
}

// TestSelectivityIgnoredStatFallsBackToMagic: when the only statistic is
// ignored (MNSA's what-if mode), the estimator must fall back to the magic
// number rather than a zero estimate.
func TestSelectivityIgnoredStatFallsBackToMagic(t *testing.T) {
	var rows []storage.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, storage.Row{catalog.NewInt(int64(i)), catalog.NewInt(int64(i % 10))})
	}
	sess, _ := boundarySession(t, rows)
	got := filterRowsWhatIf(t, sess, query.Eq, 3, WhatIf{Hide: []stats.ID{stats.MakeID("b", []string{"v"})}})
	want := 100 * magicEq
	if got != want {
		t.Errorf("ignored stat: estimated %v rows, want magic-number estimate %v", got, want)
	}
}
