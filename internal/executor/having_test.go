package executor_test

import (
	"slices"
	"testing"

	"autostats/internal/sqlparser"
	"autostats/internal/storage"
)

func TestHavingFiltersGroups(t *testing.T) {
	e := newEnv(t, 2, 0.25)
	// Reference counts per group.
	want := map[string]int64{}
	td := mustTable(t, e.db, "orders")
	pi := td.Schema.ColumnIndex("o_orderpriority")
	td.Scan(func(_ int, r storage.Row) bool {
		want[r[pi].S]++
		return true
	})
	cutoff := int64(0)
	for _, c := range want {
		cutoff += c
	}
	cutoff /= int64(len(want)) // average group size

	rows, cols := runAgg(t, e,
		"SELECT o_orderpriority, COUNT(*) FROM orders GROUP BY o_orderpriority HAVING COUNT(*) > "+itoa(cutoff))
	gp, cp := cols["orders.o_orderpriority"], cols["count(*)"]
	wantKept := 0
	for _, c := range want {
		if c > cutoff {
			wantKept++
		}
	}
	if len(rows) != wantKept {
		t.Fatalf("HAVING kept %d groups, want %d", len(rows), wantKept)
	}
	for _, r := range rows {
		if r[cp].I <= cutoff {
			t.Errorf("group %q count %d violates HAVING > %d", r[gp].S, r[cp].I, cutoff)
		}
		if r[cp].I != want[r[gp].S] {
			t.Errorf("group %q count %d, want %d", r[gp].S, r[cp].I, want[r[gp].S])
		}
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// TestHavingOnUnprojectedAggregate: HAVING may reference an aggregate not in
// the SELECT list; the engine computes it internally.
func TestHavingOnUnprojectedAggregate(t *testing.T) {
	e := newEnv(t, 0, 0.25)
	rows, cols := runAgg(t, e,
		"SELECT o_orderpriority FROM orders GROUP BY o_orderpriority HAVING SUM(o_totalprice) > 0")
	if len(rows) == 0 {
		t.Fatal("expected surviving groups")
	}
	if _, ok := cols["sum(orders.o_totalprice)"]; !ok {
		t.Error("internally computed HAVING aggregate should appear in output columns")
	}
}

func TestHavingScalarAggregate(t *testing.T) {
	e := newEnv(t, 0, 0.25)
	rows, _ := runAgg(t, e, "SELECT COUNT(*) FROM orders HAVING COUNT(*) > 999999")
	if len(rows) != 0 {
		t.Errorf("unsatisfied scalar HAVING should yield no rows, got %d", len(rows))
	}
	rows, _ = runAgg(t, e, "SELECT COUNT(*) FROM orders HAVING COUNT(*) >= 0")
	if len(rows) != 1 {
		t.Errorf("satisfied scalar HAVING should yield one row, got %d", len(rows))
	}
}

func TestHavingRoundTripAndErrors(t *testing.T) {
	e := newEnv(t, 0, 0.2)
	sql := "SELECT o_orderpriority, COUNT(*) FROM orders GROUP BY o_orderpriority HAVING COUNT(*) > 10 AND SUM(o_totalprice) > 1000"
	q, err := sqlparser.ParseSelect(e.db.Schema, sql)
	if err != nil {
		t.Fatal(err)
	}
	re, err := sqlparser.ParseSelect(e.db.Schema, q.SQL())
	if err != nil {
		t.Fatalf("re-parse %q: %v", q.SQL(), err)
	}
	if re.SQL() != q.SQL() {
		t.Errorf("round trip: %q -> %q", q.SQL(), re.SQL())
	}
	for _, bad := range []string{
		"SELECT o_orderpriority FROM orders GROUP BY o_orderpriority HAVING o_orderpriority = 'X'", // non-aggregate
		"SELECT COUNT(*) FROM orders HAVING COUNT(*) >",
	} {
		if _, err := sqlparser.ParseSelect(e.db.Schema, bad); err == nil {
			t.Errorf("expected parse error for %q", bad)
		}
	}
}

// TestHavingBothAggStrategies: HAVING must behave identically under hash and
// stream aggregation, before and after a statistic on the grouping column
// changes the optimizer's group estimate.
func TestHavingBothAggStrategies(t *testing.T) {
	e := newEnv(t, 0, 0.25)
	sql := "SELECT o_custkey, COUNT(*) FROM orders GROUP BY o_custkey HAVING COUNT(*) > 2"
	var before []string
	for phase := 0; phase < 2; phase++ {
		hash, stream, _ := runAggBoth(t, e, sql)
		h, s := fingerprints(hash), fingerprints(stream)
		if len(h) == 0 {
			t.Fatalf("phase %d: HAVING kept no groups", phase)
		}
		if !slices.Equal(h, s) {
			t.Errorf("phase %d: HAVING kept %d groups under hash aggregation, %d under stream", phase, len(h), len(s))
		}
		if phase == 1 {
			if !slices.Equal(h, before) {
				t.Errorf("HAVING kept %d groups before the statistic, %d after", len(before), len(h))
			}
			break
		}
		before = h
		if _, err := e.sess.Manager().Create("orders", []string{"o_custkey"}); err != nil {
			t.Fatal(err)
		}
	}
}
