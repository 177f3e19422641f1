package histogram

import (
	"math"
	"math/rand"
	"testing"

	"autostats/internal/catalog"
)

// exactJoinSel counts matching pairs exactly.
func exactJoinSel(a, b []catalog.Datum) float64 {
	counts := map[int64]int{}
	for _, v := range b {
		if !v.Null {
			counts[v.I]++
		}
	}
	matches := 0
	for _, v := range a {
		if !v.Null {
			matches += counts[v.I]
		}
	}
	return float64(matches) / (float64(len(a)) * float64(len(b)))
}

func zipfInts(rng *rand.Rand, n, domain int, z float64) []catalog.Datum {
	// Inline Zipf sampler to avoid importing datagen (cycle-free but keeps
	// the test self-contained).
	cdf := make([]float64, domain)
	sum := 0.0
	for i := 0; i < domain; i++ {
		sum += 1 / math.Pow(float64(i+1), z)
		cdf[i] = sum
	}
	out := make([]catalog.Datum, n)
	for i := range out {
		u := rng.Float64() * sum
		lo, hi := 0, domain-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[i] = catalog.NewInt(int64(lo))
	}
	return out
}

// TestJoinSelectivityExactWithSingletonBuckets: when both histograms have
// one bucket per value, the dot product is exact.
func TestJoinSelectivityExactWithSingletonBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := zipfInts(rng, 3000, 50, 1.5)
	b := zipfInts(rng, 500, 50, 0)
	ha := build(MaxDiff, a, 100) // 50 distinct < 100 buckets → singletons
	hb := build(MaxDiff, b, 100)
	got := JoinSelectivity(ha, hb)
	want := exactJoinSel(a, b)
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("JoinSelectivity = %v, exact %v", got, want)
	}
}

// TestJoinSelectivityUnderSkew: the headline motivation — a z=2 skewed FK
// join must be estimated within a small factor, where the naive 1/max(V)
// estimate is off by orders of magnitude.
func TestJoinSelectivityUnderSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	fk := zipfInts(rng, 6000, 1500, 2) // hot-key foreign keys
	var pk []catalog.Datum
	for i := 0; i < 1500; i++ {
		pk = append(pk, catalog.NewInt(int64(i)))
	}
	hfk := build(MaxDiff, fk, 200)
	hpk := build(MaxDiff, pk, 200)
	got := JoinSelectivity(hfk, hpk)
	want := exactJoinSel(fk, pk) // = 1/1500 exactly (PK unique)
	if got < want/3 || got > want*3 {
		t.Errorf("skewed FK-PK join: got %v, want within 3x of %v", got, want)
	}

	// And the reverse direction: joining two skewed FK columns, where
	// matches concentrate on the hot keys. The naive estimate 1/max(V)
	// would be ~1/1500; the true value is far larger.
	fk2 := zipfInts(rng, 800, 1500, 2)
	hfk2 := build(MaxDiff, fk2, 200)
	got = JoinSelectivity(hfk, hfk2)
	want = exactJoinSel(fk, fk2)
	naive := 1.0 / 1500
	if want < naive*5 {
		t.Skip("generated data insufficiently skewed for this assertion")
	}
	if got < want/5 || got > want*5 {
		t.Errorf("skewed FK-FK join: got %v, true %v (naive %v)", got, want, naive)
	}
}

func TestJoinSelectivityDisjointDomains(t *testing.T) {
	a := build(MaxDiff, intVals(1, 2, 3), 10)
	b := build(MaxDiff, intVals(100, 200), 10)
	if got := JoinSelectivity(a, b); got != 0 {
		t.Errorf("disjoint join selectivity = %v, want 0", got)
	}
}

func TestJoinSelectivityEmpty(t *testing.T) {
	a := build(MaxDiff, nil, 10)
	b := build(MaxDiff, intVals(1), 10)
	if got := JoinSelectivity(a, b); got != 0 {
		t.Errorf("empty join selectivity = %v", got)
	}
}

func TestJoinSelectivitySymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := zipfInts(rng, 1000, 80, 1)
	b := zipfInts(rng, 400, 80, 2)
	ha, hb := build(MaxDiff, a, 40), build(MaxDiff, b, 40)
	ab, ba := JoinSelectivity(ha, hb), JoinSelectivity(hb, ha)
	if math.Abs(ab-ba)/math.Max(ab, ba) > 0.05 {
		t.Errorf("join selectivity should be (near) symmetric: %v vs %v", ab, ba)
	}
}

var sinkSel float64

// BenchmarkJoinSelectivity is the layer benchmark of one join estimate
// without the optimizer's memo: lineitem.l_orderkey (120 000 rows, Zipf 1
// over 30 000 keys) against orders.o_orderkey (30 000 unique keys), both
// MaxDiff at the production bucket count.
func BenchmarkJoinSelectivity(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	keys := make([]catalog.Datum, 30_000)
	for i := range keys {
		keys[i] = catalog.NewInt(int64(i + 1))
	}
	lineitem := build(MaxDiff, zipfInts(rng, 120_000, len(keys), 1), 0)
	orders := build(MaxDiff, keys, 0)
	if len(lineitem.Buckets) != defaultBuckets || len(orders.Buckets) != defaultBuckets {
		b.Fatalf("buckets %d and %d, want %d each", len(lineitem.Buckets), len(orders.Buckets), defaultBuckets)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSel = JoinSelectivity(lineitem, orders)
	}
}
