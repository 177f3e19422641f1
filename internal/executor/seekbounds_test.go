package executor_test

import (
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/optimizer"
	"autostats/internal/query"
)

// TestIndexSeekBoundsWithMixedFilters is the minimized regression for a bug
// the differential oracle surfaced (internal/oracle, seed 7): with seek
// filters "> 1 AND = 2" on an indexed column, the equality overwrote the
// bounds but kept the earlier exclusive flag, turning the point range
// [2, 2] into the empty range (2, 2] and silently losing the matching row.
func TestIndexSeekBoundsWithMixedFilters(t *testing.T) {
	env := newEnv(t, 0, 1)
	if _, ok := env.db.Schema.IndexOn("region", "r_regionkey"); !ok {
		t.Fatal("expected an index on region.r_regionkey")
	}

	mkFilter := func(op query.CmpOp, v int64) query.Filter {
		return query.Filter{
			Col: query.ColumnRef{Table: "region", Column: "r_regionkey"},
			Op:  op,
			Val: catalog.NewInt(v),
		}
	}
	cases := []struct {
		name    string
		filters []query.Filter
		want    int
	}{
		{"gt-then-eq", []query.Filter{mkFilter(query.Gt, 1), mkFilter(query.Eq, 2)}, 1},
		{"eq-then-gt-below", []query.Filter{mkFilter(query.Eq, 2), mkFilter(query.Gt, 1)}, 1},
		{"lt-then-eq", []query.Filter{mkFilter(query.Lt, 3), mkFilter(query.Eq, 2)}, 1},
		{"ge-then-eq", []query.Filter{mkFilter(query.Ge, 1), mkFilter(query.Eq, 2)}, 1},
		// Contradictory combinations must stay empty (residual filters).
		{"eq-then-gt-above", []query.Filter{mkFilter(query.Eq, 2), mkFilter(query.Gt, 3)}, 0},
		{"eq-then-eq", []query.Filter{mkFilter(query.Eq, 2), mkFilter(query.Eq, 3)}, 0},
		{"gt-then-eq-below", []query.Filter{mkFilter(query.Gt, 3), mkFilter(query.Eq, 2)}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Drive the seek operator directly so the test pins the executor
			// behavior regardless of which access path the optimizer picks.
			n := &optimizer.Node{
				Op:          optimizer.OpIndexSeek,
				Table:       "region",
				Index:       "idx_region_r_regionkey",
				IndexCol:    "r_regionkey",
				Filters:     tc.filters,
				SeekFilters: tc.filters,
				EstRows:     1,
				Cost:        1,
			}
			res, err := env.ex.Run(&optimizer.Plan{Root: n})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != tc.want {
				t.Fatalf("%s: got %d rows, want %d", tc.name, len(res.Rows), tc.want)
			}
			// The seek must agree with a plain filtered scan of the table.
			scan := &optimizer.Node{
				Op:      optimizer.OpTableScan,
				Table:   "region",
				Filters: tc.filters,
				EstRows: 1,
				Cost:    1,
			}
			sres, err := env.ex.Run(&optimizer.Plan{Root: scan})
			if err != nil {
				t.Fatal(err)
			}
			if len(sres.Rows) != len(res.Rows) {
				t.Fatalf("%s: seek returned %d rows, scan returned %d", tc.name, len(res.Rows), len(sres.Rows))
			}
		})
	}
}
