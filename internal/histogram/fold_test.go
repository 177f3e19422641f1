package histogram

import (
	"math/rand"
	"reflect"
	"testing"

	"autostats/internal/catalog"
)

func mustBuildMulti(t testing.TB, kind Kind, cols []string, tuples [][]catalog.Datum, buckets int) *MultiColumn {
	t.Helper()
	mc, err := BuildMulti(kind, cols, tuples, buckets)
	if err != nil {
		t.Fatal(err)
	}
	return mc
}

// TestFoldMultiRowTotals: folding keeps bucket row sums, NULL counts and the
// statistic row total exact, and never mutates the input.
func TestFoldMultiRowTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tuples := randTuples(rng, 400, 1)
	mc := mustBuildMulti(t, MaxDiff, []string{"a"}, tuples, 12)
	before := mc.Clone()

	ins := []catalog.Datum{catalog.NewInt(3), catalog.NewInt(999), catalog.NewInt(-50), {Null: true}}
	del := []catalog.Datum{tuples[0][0], tuples[10][0]}
	folded := FoldMulti(mc, ins, del)

	if !reflect.DeepEqual(mc, before) {
		t.Fatal("FoldMulti mutated its input")
	}
	if want := before.Rows + int64(len(ins)) - int64(len(del)); folded.Rows != want {
		t.Fatalf("folded Rows = %d, want %d", folded.Rows, want)
	}
	nonNullDelta := int64(0)
	for _, v := range ins {
		if !v.Null {
			nonNullDelta++
		}
	}
	for _, v := range del {
		if !v.Null {
			nonNullDelta--
		}
	}
	if want := before.Leading.Rows + nonNullDelta; folded.Leading.Rows != want {
		t.Fatalf("folded leading Rows = %d, want %d", folded.Leading.Rows, want)
	}
	var bucketRows int64
	for _, b := range folded.Leading.Buckets {
		bucketRows += b.Rows
	}
	if bucketRows != folded.Leading.Rows {
		t.Fatalf("bucket rows %d != histogram rows %d after fold", bucketRows, folded.Leading.Rows)
	}
	if want := before.Leading.NullRows + 1; folded.Leading.NullRows != want {
		t.Fatalf("folded NullRows = %d, want %d", folded.Leading.NullRows, want)
	}
}

// TestFoldOutOfRange: inserts beyond the histogram's domain extend the edge
// buckets so later folds and estimates still land somewhere.
func TestFoldOutOfRange(t *testing.T) {
	vals := []catalog.Datum{catalog.NewInt(10), catalog.NewInt(20), catalog.NewInt(30)}
	tuples := make([][]catalog.Datum, len(vals))
	for i, v := range vals {
		tuples[i] = []catalog.Datum{v}
	}
	mc := mustBuildMulti(t, EquiDepth, []string{"a"}, tuples, 2)
	folded := FoldMulti(mc, []catalog.Datum{catalog.NewInt(1), catalog.NewInt(100)}, nil)
	h := folded.Leading
	if h.Buckets[0].Lo.Compare(catalog.NewInt(1)) != 0 {
		t.Fatalf("low insert did not extend first bucket: Lo=%v", h.Buckets[0].Lo)
	}
	if h.Buckets[len(h.Buckets)-1].Hi.Compare(catalog.NewInt(100)) != 0 {
		t.Fatalf("high insert did not extend last bucket: Hi=%v", h.Buckets[len(h.Buckets)-1].Hi)
	}
	if h.Rows != 5 {
		t.Fatalf("rows = %d, want 5", h.Rows)
	}
}

// TestFoldEmptyHistogram: folding into a statistic built over zero rows
// creates a seed bucket instead of dropping the delta.
func TestFoldEmptyHistogram(t *testing.T) {
	mc := mustBuildMulti(t, MaxDiff, []string{"a"}, nil, 0)
	folded := FoldMulti(mc, []catalog.Datum{catalog.NewInt(7), catalog.NewInt(7)}, nil)
	h := folded.Leading
	if len(h.Buckets) != 1 || h.Rows != 2 {
		t.Fatalf("empty fold: buckets=%d rows=%d", len(h.Buckets), h.Rows)
	}
	// Delete below zero floors at zero rather than going negative.
	drained := FoldMulti(folded, nil, []catalog.Datum{catalog.NewInt(7), catalog.NewInt(7), catalog.NewInt(7)})
	if drained.Leading.Rows != 0 || drained.Rows != 0 {
		t.Fatalf("over-delete: leading rows=%d total=%d", drained.Leading.Rows, drained.Rows)
	}
}

// TestCloneIndependence: mutating a clone must not leak into the original.
func TestCloneIndependence(t *testing.T) {
	tuples := randTuples(rand.New(rand.NewSource(9)), 50, 2)
	mc := mustBuildMulti(t, MaxDiff, []string{"a", "b"}, tuples, 8)
	c := mc.Clone()
	c.Leading.Buckets[0].Rows += 100
	c.Densities[0] = -1
	c.PrefixDistinct[1] = -1
	if mc.Leading.Buckets[0].Rows == c.Leading.Buckets[0].Rows {
		t.Fatal("clone shares bucket storage")
	}
	if mc.Densities[0] == -1 || mc.PrefixDistinct[1] == -1 {
		t.Fatal("clone shares density storage")
	}
}

// BenchmarkBuildMulti / BenchmarkMergePartials4 cover the reference build
// and the partial-merge build for the -benchmem allocation regression in CI.
func BenchmarkBuildMulti(b *testing.B) {
	tuples := randTuples(rand.New(rand.NewSource(1)), 5000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildMulti(MaxDiff, []string{"a"}, tuples, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergePartials4(b *testing.B) {
	tuples := randTuples(rand.New(rand.NewSource(1)), 5000, 1)
	chunks := SplitTuples(tuples, 4)
	cols := []string{"a"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := make([]*Partial, len(chunks))
		for j, chunk := range chunks {
			p, err := BuildPartial(cols, chunk)
			if err != nil {
				b.Fatal(err)
			}
			parts[j] = p
		}
		if _, err := MergePartials(MaxDiff, cols, parts, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFoldMulti measures folding 256 deltas into a 5 000-row histogram.
func BenchmarkFoldMulti(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	tuples := randTuples(rng, 5000, 1)
	mc, err := BuildMulti(MaxDiff, []string{"a"}, tuples, 0)
	if err != nil {
		b.Fatal(err)
	}
	deltas := make([]catalog.Datum, 256)
	for i := range deltas {
		deltas[i] = catalog.NewInt(int64(rng.Intn(400)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FoldMulti(mc, deltas[:128], deltas[128:])
	}
}

// TestFoldAllocsBounded is the allocation regression gate for FoldMulti:
// folding must cost a clone plus per-delta search work, never a
// per-delta allocation. The bound is generous; it exists to catch gross
// regressions (e.g. an accidental re-sort or per-delta boxing).
func TestFoldAllocsBounded(t *testing.T) {
	tuples := randTuples(rand.New(rand.NewSource(4)), 2000, 1)
	mc := mustBuildMulti(t, MaxDiff, []string{"a"}, tuples, 0)
	ins := make([]catalog.Datum, 64)
	for i := range ins {
		ins[i] = catalog.NewInt(int64(i))
	}
	allocs := testing.AllocsPerRun(50, func() {
		FoldMulti(mc, ins, nil)
	})
	if allocs > 16 {
		t.Fatalf("FoldMulti allocates %.0f objects per call for 64 deltas; want <= 16 (clone-dominated)", allocs)
	}
}
