package histogram

import (
	"testing"

	"autostats/internal/catalog"
)

// kinds covers both construction strategies for every boundary case.
var kinds = []Kind{EquiDepth, MaxDiff}

// TestEmptyColumn: a histogram built over no values must summarize zero
// rows and estimate zero selectivity for every predicate shape without
// dividing by zero.
func TestEmptyColumn(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.String(), func(t *testing.T) {
			h := build(k, nil, defaultBuckets)
			if h.totalRows() != 0 || h.Rows != 0 || h.NullRows != 0 || h.Distinct != 0 {
				t.Fatalf("empty column: %+v", h)
			}
			if len(h.Buckets) != 0 {
				t.Fatalf("empty column built %d buckets", len(h.Buckets))
			}
			probe := catalog.NewInt(7)
			if got := h.SelectivityEq(probe); got != 0 {
				t.Errorf("SelectivityEq on empty = %v, want 0", got)
			}
			for _, inc := range []bool{true, false} {
				if got := h.SelectivityLess(probe, inc); got != 0 {
					t.Errorf("SelectivityLess(inclusive=%v) on empty = %v, want 0", inc, got)
				}
			}
			if got := h.NullFraction(); got != 0 {
				t.Errorf("NullFraction on empty = %v, want 0", got)
			}
		})
	}
}

// TestSingleValueColumn: every row holds the same value — equality on that
// value must estimate selectivity 1, everything else 0, and range
// predicates must split exactly at the value.
func TestSingleValueColumn(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.String(), func(t *testing.T) {
			vals := make([]catalog.Datum, 50)
			for i := range vals {
				vals[i] = catalog.NewInt(42)
			}
			h := build(k, vals, defaultBuckets)
			if h.Rows != 50 || h.Distinct != 1 || len(h.Buckets) != 1 {
				t.Fatalf("single-value column: %+v", h)
			}
			cases := []struct {
				name string
				got  float64
				want float64
			}{
				{"eq-hit", h.SelectivityEq(catalog.NewInt(42)), 1},
				{"eq-miss-below", h.SelectivityEq(catalog.NewInt(41)), 0},
				{"eq-miss-above", h.SelectivityEq(catalog.NewInt(43)), 0},
				{"lt-value", h.SelectivityLess(catalog.NewInt(42), false), 0},
				{"le-value", h.SelectivityLess(catalog.NewInt(42), true), 1},
				{"lt-above", h.SelectivityLess(catalog.NewInt(100), false), 1},
				{"le-below", h.SelectivityLess(catalog.NewInt(0), true), 0},
			}
			for _, c := range cases {
				if c.got != c.want {
					t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
				}
			}
		})
	}
}

// TestAllNullColumn: NULLs are excluded from buckets but counted in
// totalRows, so value predicates (which NULL never satisfies) estimate 0
// while NullFraction is 1.
func TestAllNullColumn(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.String(), func(t *testing.T) {
			vals := make([]catalog.Datum, 30)
			for i := range vals {
				vals[i] = catalog.NewNull(catalog.Int)
			}
			h := build(k, vals, defaultBuckets)
			if h.Rows != 0 || h.NullRows != 30 || h.totalRows() != 30 {
				t.Fatalf("all-NULL column: %+v", h)
			}
			if len(h.Buckets) != 0 {
				t.Fatalf("all-NULL column built %d buckets", len(h.Buckets))
			}
			if got := h.NullFraction(); got != 1 {
				t.Errorf("NullFraction = %v, want 1", got)
			}
			if got := h.SelectivityEq(catalog.NewInt(0)); got != 0 {
				t.Errorf("SelectivityEq over all-NULL = %v, want 0", got)
			}
			if got := h.SelectivityLess(catalog.NewInt(1<<50), true); got != 0 {
				t.Errorf("SelectivityLess over all-NULL = %v, want 0", got)
			}
		})
	}
}

// TestOutOfRangePredicates: probes beyond either end of the summarized
// domain must clamp cleanly to 0 or 1 — the extrapolation the differential
// oracle's out-of-range workload knob leans on.
func TestOutOfRangePredicates(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.String(), func(t *testing.T) {
			var vals []catalog.Datum
			for i := 0; i < 100; i++ {
				vals = append(vals, catalog.NewInt(int64(10+i%20)))
			}
			h := build(k, vals, 8)
			below := catalog.NewInt(-1 << 40)
			above := catalog.NewInt(1 << 40)
			cases := []struct {
				name string
				got  float64
				want float64
			}{
				{"eq-far-below", h.SelectivityEq(below), 0},
				{"eq-far-above", h.SelectivityEq(above), 0},
				{"lt-far-below", h.SelectivityLess(below, false), 0},
				{"le-far-below", h.SelectivityLess(below, true), 0},
				{"lt-far-above", h.SelectivityLess(above, false), 1},
				{"le-far-above", h.SelectivityLess(above, true), 1},
			}
			for _, c := range cases {
				if c.got != c.want {
					t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
				}
			}
		})
	}
}

// TestMixedNullBoundaries: a half-NULL column must keep value-predicate
// estimates relative to ALL rows (NULLs dilute selectivity, matching
// execution where NULL rows never pass a comparison).
func TestMixedNullBoundaries(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.String(), func(t *testing.T) {
			var vals []catalog.Datum
			for i := 0; i < 40; i++ {
				vals = append(vals, catalog.NewInt(5))
			}
			for i := 0; i < 60; i++ {
				vals = append(vals, catalog.NewNull(catalog.Int))
			}
			h := build(k, vals, defaultBuckets)
			if got := h.SelectivityEq(catalog.NewInt(5)); got != 0.4 {
				t.Errorf("SelectivityEq = %v, want 0.4 (diluted by NULLs)", got)
			}
			if got := h.SelectivityLess(catalog.NewInt(6), true); got != 0.4 {
				t.Errorf("SelectivityLess = %v, want 0.4", got)
			}
			if got := h.NullFraction(); got != 0.6 {
				t.Errorf("NullFraction = %v, want 0.6", got)
			}
		})
	}
}

// TestTinyBucketBudget: a bucket budget of 1 must still produce a valid
// summary covering the whole domain.
func TestTinyBucketBudget(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.String(), func(t *testing.T) {
			var vals []catalog.Datum
			for i := 0; i < 100; i++ {
				vals = append(vals, catalog.NewInt(int64(i)))
			}
			h := build(k, vals, 1)
			if len(h.Buckets) != 1 {
				t.Fatalf("budget 1 built %d buckets", len(h.Buckets))
			}
			b := h.Buckets[0]
			if b.Lo.I != 0 || b.Hi.I != 99 || b.Rows != 100 || b.Distinct != 100 {
				t.Fatalf("single bucket does not cover the domain: %+v", b)
			}
			if got := h.SelectivityLess(catalog.NewInt(200), true); got != 1 {
				t.Errorf("whole-domain range = %v, want 1", got)
			}
		})
	}
}
