package autostats

import (
	"math"
	"strconv"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/executor"
)

// lineitemLike builds an executor result of n rows x 16 columns with the
// type mix of a lineitem row — keys, prices, flags, dates, a comment — so
// the render benchmarks need no database. 390 rows is the median
// serve_wide answer.
func lineitemLike(n int) *executor.Result {
	res := &executor.Result{Cols: map[string]int{}, Cost: 52340.25}
	for c := 0; c < 16; c++ {
		res.Cols["lineitem.c"+strconv.Itoa(c)] = c
	}
	for r := 0; r < n; r++ {
		row := make([]catalog.Datum, 16)
		for c := range row {
			switch c % 4 {
			case 0:
				row[c] = catalog.NewInt(int64(100000 + r*7 + c))
			case 1:
				row[c] = catalog.NewFloat(float64(r*c) + 0.25)
			case 2:
				row[c] = catalog.NewDate(int64(9000 + r))
			default:
				row[c] = catalog.NewString("it's row " + strconv.Itoa(r))
			}
		}
		row[15] = catalog.NewNull(catalog.String)
		res.Rows = append(res.Rows, row)
	}
	return res
}

// TestRenderResultShape: every cell reads as Datum.String renders it, the
// columns come out in position order, and each row is capped at its own
// length — the rows are windows of one backing array, so an append that
// found spare capacity would overwrite the next row's first cell.
func TestRenderResultShape(t *testing.T) {
	res := lineitemLike(5)
	res.Rows = append(res.Rows, []catalog.Datum{}, []catalog.Datum{catalog.NewInt(1)})
	out := renderResult(res)
	if len(out.Columns) != 16 || out.Columns[3] != "lineitem.c3" {
		t.Fatalf("columns = %q", out.Columns)
	}
	if len(out.Rows) != len(res.Rows) {
		t.Fatalf("%d rows rendered from %d", len(out.Rows), len(res.Rows))
	}
	for i, row := range out.Rows {
		if len(row) != len(res.Rows[i]) || cap(row) != len(row) {
			t.Fatalf("row %d: len %d cap %d, want both %d", i, len(row), cap(row), len(res.Rows[i]))
		}
		for j, cell := range row {
			if want := res.Rows[i][j].String(); cell != want {
				t.Fatalf("cell %d,%d = %q, want %q", i, j, cell, want)
			}
		}
	}
	next := out.Rows[1][0]
	out.Rows[0] = append(out.Rows[0], "appended")
	if out.Rows[1][0] != next {
		t.Fatalf("append to row 0 overwrote row 1: %q", out.Rows[1][0])
	}

	if out := renderResult(&executor.Result{Cost: 3, Affected: 2}); out.Columns != nil || out.Rows != nil || out.Affected != 2 {
		t.Fatalf("DML result rendered as %+v", out)
	}
	if out := renderResult(&executor.Result{Cols: map[string]int{"t.a": 0}}); len(out.Columns) != 1 || out.Rows == nil || len(out.Rows) != 0 {
		t.Fatalf("empty SELECT rendered as %+v", out)
	}
}

// TestRenderResultSpansChunks: a result whose text outgrows one chunk is cut
// across several, and every cell still reads as Datum.String renders it.
func TestRenderResultSpansChunks(t *testing.T) {
	res := lineitemLike(20000) // about 3 MiB of literals
	out := renderResult(res)
	total := 0
	for i, row := range out.Rows {
		for j, cell := range row {
			if want := res.Rows[i][j].String(); cell != want {
				t.Fatalf("cell %d,%d = %q, want %q", i, j, cell, want)
			}
			total += len(cell)
		}
	}
	if total < 2<<20 {
		t.Fatalf("only %d bytes of literals: the result does not span chunks", total)
	}
}

// TestRenderResultAllocsConstant is the render layer's invariant as a count:
// the same few objects (result, columns, text, cells, rows, one scratch
// literal) whether 100 rows are rendered or 1 000 — and no more for the
// longest literal of each type, which is what the up-front size has to cover.
func TestRenderResultAllocsConstant(t *testing.T) {
	allocs := func(res *executor.Result) float64 {
		return testing.AllocsPerRun(20, func() { renderResult(res) })
	}
	small, large := allocs(lineitemLike(100)), allocs(lineitemLike(1000))
	if small != large || small > 8 {
		t.Errorf("render allocs: %v at 100 rows, %v at 1000 rows; want equal and at most 8", small, large)
	}
	longest := lineitemLike(100)
	for _, row := range longest.Rows {
		row[0] = catalog.NewInt(math.MinInt64)
		row[1] = catalog.NewFloat(-math.MaxFloat64)
		row[2] = catalog.NewDate(math.MinInt64)
		row[3] = catalog.NewString("''''")
		row[4] = catalog.NewInt(math.MaxInt64)
		row[5] = catalog.NewFloat(-math.SmallestNonzeroFloat64)
		row[6] = catalog.NewDate(999)
	}
	if n := allocs(longest); n != small {
		t.Errorf("render allocs with the longest literals: %v, want %v (the text was regrown)", n, small)
	}
}

var renderSink *QueryResult

func BenchmarkRenderResult(b *testing.B) {
	res := lineitemLike(390)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		renderSink = renderResult(res)
	}
}
