package histogram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"autostats/internal/catalog"
)

func intVals(vs ...int64) []catalog.Datum {
	out := make([]catalog.Datum, len(vs))
	for i, v := range vs {
		out[i] = catalog.NewInt(v)
	}
	return out
}

func randomInts(rng *rand.Rand, n, domain int) []catalog.Datum {
	out := make([]catalog.Datum, n)
	for i := range out {
		out[i] = catalog.NewInt(int64(rng.Intn(domain)))
	}
	return out
}

// checkInvariants asserts the structural invariants every histogram must
// satisfy: buckets sorted and non-overlapping, rows and distinct counts sum
// to the column totals.
func checkInvariants(t *testing.T, h *Histogram, values []catalog.Datum) {
	t.Helper()
	var rows, distinct int64
	for i, b := range h.Buckets {
		if b.Lo.Compare(b.Hi) > 0 {
			t.Errorf("bucket %d has Lo > Hi", i)
		}
		if i > 0 && h.Buckets[i-1].Hi.Compare(b.Lo) >= 0 {
			t.Errorf("bucket %d overlaps previous", i)
		}
		if b.Rows <= 0 || b.Distinct <= 0 {
			t.Errorf("bucket %d has nonpositive counts: %+v", i, b)
		}
		rows += b.Rows
		distinct += b.Distinct
	}
	nonNull := int64(0)
	exact := map[int64]bool{}
	for _, v := range values {
		if !v.Null {
			nonNull++
			exact[v.I] = true
		}
	}
	if rows != nonNull {
		t.Errorf("bucket rows sum %d != non-null values %d", rows, nonNull)
	}
	if distinct != int64(len(exact)) {
		t.Errorf("bucket distinct sum %d != exact distinct %d", distinct, len(exact))
	}
	if h.Distinct != int64(len(exact)) {
		t.Errorf("h.Distinct = %d, want %d", h.Distinct, len(exact))
	}
}

func TestBuildInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, kind := range []Kind{EquiDepth, MaxDiff} {
		for _, n := range []int{0, 1, 10, 1000} {
			for _, domain := range []int{1, 5, 300} {
				if n == 0 {
					h := build(kind, nil, 50)
					if len(h.Buckets) != 0 || h.totalRows() != 0 {
						t.Errorf("%v empty build: %+v", kind, h)
					}
					continue
				}
				vals := randomInts(rng, n, domain)
				h := build(kind, vals, 50)
				checkInvariants(t, h, vals)
				if len(h.Buckets) > 50 {
					t.Errorf("%v n=%d domain=%d: %d buckets exceeds budget", kind, n, domain, len(h.Buckets))
				}
			}
		}
	}
}

func TestNullsTracked(t *testing.T) {
	vals := intVals(1, 2, 3)
	vals = append(vals, catalog.NewNull(catalog.Int), catalog.NewNull(catalog.Int))
	h := build(MaxDiff, vals, 10)
	if h.NullRows != 2 || h.Rows != 3 || h.totalRows() != 5 {
		t.Errorf("null accounting: %+v", h)
	}
	if got := h.NullFraction(); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("NullFraction = %v", got)
	}
}

// TestMaxDiffExactWhenFewDistinct: with fewer distinct values than buckets,
// MaxDiff keeps one value per bucket, so equality selectivity is exact.
func TestMaxDiffExactWhenFewDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := randomInts(rng, 2000, 40)
	h := build(MaxDiff, vals, 200)
	counts := map[int64]int{}
	for _, v := range vals {
		counts[v.I]++
	}
	for v, c := range counts {
		want := float64(c) / float64(len(vals))
		got := h.SelectivityEq(catalog.NewInt(v))
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("SelectivityEq(%d) = %v, want exactly %v", v, got, want)
		}
	}
	if got := h.SelectivityEq(catalog.NewInt(1000)); got != 0 {
		t.Errorf("SelectivityEq(out of domain) = %v", got)
	}
}

// TestSelectivityLessMatchesExact: property test against exact counting,
// with tolerance for within-bucket interpolation.
func TestSelectivityLessMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, kind := range []Kind{EquiDepth, MaxDiff} {
		vals := randomInts(rng, 5000, 1000)
		h := build(kind, vals, 100)
		f := func(raw int16, inclusive bool) bool {
			v := catalog.NewInt(int64(raw)%1200 - 100)
			exact := 0
			for _, x := range vals {
				c := x.Compare(v)
				if c < 0 || (inclusive && c == 0) {
					exact++
				}
			}
			want := float64(exact) / float64(len(vals))
			got := h.SelectivityLess(v, inclusive)
			return math.Abs(got-want) < 0.05
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
	}
}

// TestEquiDepthBucketsBalanced: no bucket of a single-frequency distribution
// should be grossly oversized.
func TestEquiDepthBucketsBalanced(t *testing.T) {
	vals := make([]catalog.Datum, 0, 10000)
	for i := 0; i < 10000; i++ {
		vals = append(vals, catalog.NewInt(int64(i)))
	}
	h := build(EquiDepth, vals, 100)
	target := int64(10000 / 100)
	for i, b := range h.Buckets {
		if b.Rows > 2*target {
			t.Errorf("bucket %d holds %d rows (target %d)", i, b.Rows, target)
		}
	}
	if len(h.Buckets) < 90 {
		t.Errorf("expected ~100 buckets, got %d", len(h.Buckets))
	}
}

// TestMaxDiffIsolatesHeavyHitter: the headline property of MaxDiff — a hot
// value must land in its own (or a tight) bucket so its frequency estimate
// is accurate under skew.
func TestMaxDiffIsolatesHeavyHitter(t *testing.T) {
	var vals []catalog.Datum
	for i := 0; i < 5000; i++ {
		vals = append(vals, catalog.NewInt(0)) // heavy hitter
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		vals = append(vals, catalog.NewInt(int64(1+rng.Intn(2000))))
	}
	h := build(MaxDiff, vals, 50)
	got := h.SelectivityEq(catalog.NewInt(0))
	if math.Abs(got-0.5) > 0.05 {
		t.Errorf("heavy hitter selectivity %v, want ≈0.5", got)
	}
}

func TestSelectivityEqUniformAssumption(t *testing.T) {
	// 100 values, each appearing 10 times, 10 buckets: eq selectivity must
	// be ~1/100 everywhere.
	var vals []catalog.Datum
	for v := 0; v < 100; v++ {
		for k := 0; k < 10; k++ {
			vals = append(vals, catalog.NewInt(int64(v)))
		}
	}
	h := build(EquiDepth, vals, 10)
	for v := 0; v < 100; v += 7 {
		got := h.SelectivityEq(catalog.NewInt(int64(v)))
		if math.Abs(got-0.01) > 0.005 {
			t.Errorf("SelectivityEq(%d) = %v, want ≈0.01", v, got)
		}
	}
}

func TestStringHistogram(t *testing.T) {
	vals := []catalog.Datum{
		catalog.NewString("apple"), catalog.NewString("apple"),
		catalog.NewString("banana"), catalog.NewString("cherry"),
	}
	h := build(MaxDiff, vals, 10)
	if got := h.SelectivityEq(catalog.NewString("apple")); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("apple selectivity %v", got)
	}
	if got := h.SelectivityLess(catalog.NewString("b"), false); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("< 'b' selectivity %v", got)
	}
}

func TestBuildCostUnitsMonotone(t *testing.T) {
	if BuildCostUnits(100, 1) >= BuildCostUnits(1000, 1) {
		t.Error("build cost must grow with rows")
	}
	if BuildCostUnits(1000, 1) >= BuildCostUnits(1000, 3) {
		t.Error("build cost must grow with column count")
	}
	if BuildCostUnits(0, 1) <= 0 {
		t.Error("build cost must be positive")
	}
}

func TestKindString(t *testing.T) {
	if EquiDepth.String() != "equi-depth" || MaxDiff.String() != "maxdiff" {
		t.Error("Kind.String mismatch")
	}
}
