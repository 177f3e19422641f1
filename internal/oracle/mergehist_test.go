package oracle

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/histogram"
	"autostats/internal/sqlparser"
	"autostats/internal/stats"
)

// singlePassReference is Harness.singlePassReference failing the test on
// error — a statistic from another Manager would come out of the same
// pipeline as the one under test and prove nothing.
func singlePassReference(t *testing.T, h *Harness, table string, cols []string) *histogram.MultiColumn {
	t.Helper()
	_, mc, err := h.singlePassReference(table, cols)
	if err != nil {
		t.Fatal(err)
	}
	return mc
}

// cutInto configures h.Mgr to cut table's scan into about parts partitions
// (one-row blocks, so the cuts land where asked).
func cutInto(t *testing.T, h *Harness, table string, parts int) {
	t.Helper()
	td, err := h.DB.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Mgr.SetStreamingBuild(stats.StreamConfig{
		BlockSize:     1,
		PartitionRows: (td.RowCount() + parts - 1) / parts,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionMergeDifferential is the merge oracle: statistics the manager
// builds from merged partials must be EXACTLY the statistics a single-pass
// BuildMulti produces — same buckets, same boundaries, same densities — and
// every estimate derived from them must survive the bucket-boundary
// differential sweep across all comparison operators, at every partition
// count.
func TestPartitionMergeDifferential(t *testing.T) {
	ref, err := New(Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	refData := singlePassReference(t, ref, "orders", []string{"o_orderdate"})
	if len(refData.Leading.Buckets) < 2 {
		t.Fatalf("reference histogram too small: %d buckets", len(refData.Leading.Buckets))
	}

	ops := []string{">", ">=", "<", "<=", "="}
	for _, par := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("partitions=%d", par), func(t *testing.T) {
			h, err := New(Options{Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			cutInto(t, h, "orders", par)
			st, err := h.Mgr.Create("orders", []string{"o_orderdate"})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st.Data, refData) {
				t.Fatalf("merged statistic differs from single-pass build at %d partitions", par)
			}
			if got := h.Reg.Snapshot().Counters["stats.build.partials_merged"]; par > 1 && got < 2 {
				t.Fatalf("asked for %d partitions, merged %d partials", par, got)
			}
			// Boundary sweep: probe each bucket edge ±1 with every operator
			// and check the chosen plan's execution against the reference
			// evaluator.
			checked := 0
			for _, b := range st.Data.Leading.Buckets {
				for _, edge := range []catalog.Datum{b.Lo, b.Hi} {
					for delta := int64(-1); delta <= 1; delta++ {
						for _, op := range ops {
							sql := fmt.Sprintf("SELECT * FROM orders WHERE o_orderdate %s %s",
								op, catalog.NewDate(edge.I+delta))
							sel, err := sqlparser.ParseSelect(h.DB.Schema, sql)
							if err != nil {
								t.Fatalf("%s: %v", sql, err)
							}
							f, err := h.checkQuery(sel)
							if err != nil {
								t.Fatalf("%s: %v", sql, err)
							}
							if f != nil && f.Detail != "budget" {
								t.Errorf("partitions=%d: boundary mismatch: %s", par, f)
							}
							checked++
						}
					}
				}
			}
			t.Logf("partitions=%d: %d boundary probes, statistic identical to single-pass", par, checked)
		})
	}
}

// TestPartitionCountDeterminism: rebuilding the same statistic at different
// partition cuts — including refreshes — must never change it: every cut
// must equal the single-pass BuildMulti reference.
func TestPartitionCountDeterminism(t *testing.T) {
	cols := []string{"l_quantity", "l_partkey"}
	t.Run("exact", func(t *testing.T) {
		var want *histogram.MultiColumn
		for _, par := range []int{1, 2, 4, 7} {
			h, err := New(Options{Seed: 17})
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = singlePassReference(t, h, "lineitem", cols)
			}
			cutInto(t, h, "lineitem", par)
			st, err := h.Mgr.Create("lineitem", cols)
			if err != nil {
				t.Fatal(err)
			}
			// A refresh re-runs the build path; it must be just as
			// deterministic as the initial create.
			if err := h.Mgr.Refresh(context.Background(), st.ID); err != nil {
				t.Fatal(err)
			}
			if got := h.Mgr.Get(st.ID).Data; !reflect.DeepEqual(got, want) {
				t.Errorf("%d partitions produced a different statistic than the reference", par)
			}
		}
	})
}
