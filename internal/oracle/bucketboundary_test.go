package oracle

import (
	"fmt"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/query"
	"autostats/internal/sqlparser"
)

// TestBucketBoundaryDifferential sweeps filter constants across the
// histogram's bucket boundaries — the exact points where the parameterized
// plan cache's selectivity buckets can flip — and checks every execution
// against the reference evaluator. All sweeps share one cached session, so
// the run exercises cold optimizations, same-bucket rebound hits and
// cross-bucket misses alike; the results must be identical in every case.
func TestBucketBoundaryDifferential(t *testing.T) {
	h, err := New(Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.Mgr.Create("orders", []string{"o_orderdate"})
	if err != nil {
		t.Fatal(err)
	}
	hist := st.Data.Leading
	if len(hist.Buckets) < 2 {
		t.Fatalf("histogram too small to have boundaries: %d buckets", len(hist.Buckets))
	}

	ops := []string{">", ">=", "<", "<=", "="}
	checked, findings := 0, 0
	for _, b := range hist.Buckets {
		for _, edge := range []catalog.Datum{b.Lo, b.Hi} {
			// Probe the boundary itself and one step to either side: the
			// three constants typically straddle a selectivity-bucket flip.
			for delta := int64(-1); delta <= 1; delta++ {
				v := edge.I + delta
				for _, op := range ops {
					sql := fmt.Sprintf("SELECT * FROM orders WHERE o_orderdate %s %s",
						op, catalog.NewDate(v))
					sel, err := sqlparser.ParseSelect(h.DB.Schema, sql)
					if err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
					f, err := h.checkQuery(sel)
					if err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
					if f != nil && f.Detail != "budget" {
						findings++
						t.Errorf("boundary mismatch: %s", f)
					}
					checked++
				}
			}
		}
	}
	if findings > 0 {
		t.Fatalf("%d differential failures across %d boundary probes", findings, checked)
	}

	cs := h.cache.Stats()
	if cs.Hits == 0 {
		t.Errorf("boundary sweep should produce parameterized cache hits: %+v", cs)
	}
	if cs.Misses == 0 {
		t.Errorf("cross-bucket constants should also miss sometimes: %+v", cs)
	}
	t.Logf("probes=%d cache=%+v", checked, cs)
}

// TestBucketBoundaryJoinDifferential repeats the boundary sweep for a join
// query whose inner side is index-seekable: rebound literals must reach the
// seek filters of cached join plans too.
func TestBucketBoundaryJoinDifferential(t *testing.T) {
	h, err := New(Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.Mgr.Create("orders", []string{"o_custkey"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Mgr.Create("customer", []string{"c_custkey"}); err != nil {
		t.Fatal(err)
	}
	hist := st.Data.Leading
	for _, b := range hist.Buckets {
		for delta := int64(0); delta <= 1; delta++ {
			v := b.Hi.I + delta
			sql := fmt.Sprintf(
				"SELECT * FROM orders, customer WHERE orders.o_custkey = customer.c_custkey AND orders.o_custkey > %d", v)
			sel, err := sqlparser.ParseSelect(h.DB.Schema, sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			f, err := h.checkQuery(sel)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if f != nil && f.Detail != "budget" {
				t.Errorf("join boundary mismatch: %s", f)
			}
		}
	}
	if cs := h.cache.Stats(); cs.Hits == 0 {
		t.Errorf("join sweep should produce cache hits: %+v", cs)
	}
}

// mkBoundarySelect guards against the generator ever producing a template
// the parser cannot round-trip; it is exercised implicitly above but kept as
// an explicit canary for the canonical print.
func TestBoundaryTemplateRoundTrip(t *testing.T) {
	h, err := New(Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sql := "SELECT * FROM orders WHERE o_orderdate > DATE 9300"
	sel, err := sqlparser.ParseSelect(h.DB.Schema, sql)
	if err != nil {
		t.Fatal(err)
	}
	again, err := sqlparser.ParseSelect(h.DB.Schema, sel.SQL())
	if err != nil {
		t.Fatalf("SQL() not re-parseable: %v", err)
	}
	if sel.Template() != again.Template() {
		t.Errorf("template not stable across round-trip: %q vs %q", sel.Template(), again.Template())
	}
	var _ *query.Select = again
}
