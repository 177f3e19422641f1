package histogram

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"autostats/internal/catalog"
)

// streamTuples generates a deterministic mixed-type tuple set with NULLs,
// duplicate leading values, and cross-type numeric ties (Int 5 vs Float 5.0
// exercise tieBreak in collectFreqs).
func streamTuples(n int, seed int64) [][]catalog.Datum {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]catalog.Datum, n)
	for i := range out {
		var lead catalog.Datum
		switch rng.Intn(5) {
		case 0:
			lead = catalog.NewNull(catalog.Int)
		case 1:
			lead = catalog.NewFloat(float64(rng.Intn(8)))
		default:
			lead = catalog.NewInt(int64(rng.Intn(8)))
		}
		out[i] = []catalog.Datum{
			lead,
			catalog.NewString(fmt.Sprintf("g%d", rng.Intn(5))),
			catalog.NewInt(int64(rng.Intn(3))),
		}
	}
	return out
}

// feedBlocks pushes tuples into the builder through a reused block buffer of
// the given size, mimicking how a storage BlockIter recycles its backing
// array — this is what catches any missing copy in AddBlock.
func feedBlocks(t *testing.T, b *PartialBuilder, tuples [][]catalog.Datum, blockSize int) {
	t.Helper()
	width := 0
	if len(tuples) > 0 {
		width = len(tuples[0])
	}
	flat := make([]catalog.Datum, blockSize*width)
	block := make([][]catalog.Datum, 0, blockSize)
	for start := 0; start < len(tuples); start += blockSize {
		end := start + blockSize
		if end > len(tuples) {
			end = len(tuples)
		}
		block = block[:0]
		for i, src := range tuples[start:end] {
			dst := flat[i*width : (i+1)*width : (i+1)*width]
			copy(dst, src)
			block = append(block, dst)
		}
		if err := b.AddBlock(block); err != nil {
			t.Fatal(err)
		}
		// Scribble over the buffer to prove the builder copied what it kept.
		for i := range flat {
			flat[i] = catalog.NewString("POISON")
		}
	}
}

// TestPartialBuilderMatchesBuildPartial: Finish() must not depend on how the
// partition was blocked — every block size (through a recycled block buffer)
// yields the partial of the one-block BuildPartial, which in turn merges to
// exactly BuildMulti — for single- and multi-column statistics, and again
// after the builder (and its reused buffer) has been through a Finish.
func TestPartialBuilderMatchesBuildPartial(t *testing.T) {
	tuples := streamTuples(233, 1)
	for _, cols := range [][]string{{"a"}, {"a", "b"}, {"a", "b", "c"}} {
		proj := make([][]catalog.Datum, len(tuples))
		for i, tup := range tuples {
			proj[i] = tup[:len(cols)]
		}
		want, err := BuildPartial(cols, proj)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := BuildMulti(MaxDiff, cols, proj, 0)
		if err != nil {
			t.Fatal(err)
		}
		if mc, err := MergePartials(MaxDiff, cols, []*Partial{want}, 0); err != nil || !reflect.DeepEqual(mc, ref) {
			t.Errorf("cols=%d: one-partial merge differs from BuildMulti (err=%v)", len(cols), err)
		}
		for _, bs := range []int{1, 3, 17, 64, 500} {
			b, err := NewPartialBuilder(cols)
			if err != nil {
				t.Fatal(err)
			}
			feedBlocks(t, b, proj, bs)
			if got := b.Rows(); got != int64(len(proj)) {
				t.Errorf("cols=%d block=%d: Rows=%d want %d", len(cols), bs, got, len(proj))
			}
			got := b.Finish()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("cols=%d block=%d: streamed partial differs from BuildPartial", len(cols), bs)
			}
			// The builder must reset: a second partition through the same
			// builder must match a fresh BuildPartial of that partition.
			feedBlocks(t, b, proj[:50], bs)
			want2, err := BuildPartial(cols, proj[:50])
			if err != nil {
				t.Fatal(err)
			}
			if got2 := b.Finish(); !reflect.DeepEqual(got2, want2) {
				t.Errorf("cols=%d block=%d: reused builder differs from BuildPartial", len(cols), bs)
			}
		}
	}
}

// TestPartialBuilderEmptyAndErrors: zero-row partitions are valid; arity
// mismatches are rejected without corrupting the partition.
func TestPartialBuilderEmptyAndErrors(t *testing.T) {
	if _, err := NewPartialBuilder(nil); err == nil {
		t.Error("no error for zero columns")
	}
	b, err := NewPartialBuilder([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddBlock([][]catalog.Datum{{catalog.NewInt(1)}}); err == nil {
		t.Error("no error for arity mismatch")
	}
	// A non-NULL leading value of no known type has no run to go to; a NULL
	// of any type is only counted. The good tuple ahead of the bad one must
	// not land either.
	unknown := catalog.Datum{T: catalog.Type(9), I: 1}
	if err := b.AddBlock([][]catalog.Datum{
		{catalog.NewInt(1), catalog.NewInt(1)},
		{unknown, catalog.NewInt(1)},
	}); err == nil {
		t.Error("no error for a leading datum of unknown type")
	}
	want, err := BuildPartial([]string{"a", "b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Finish(); !reflect.DeepEqual(got, want) {
		t.Error("empty Finish differs from BuildPartial over no tuples")
	}
}

// TestPartialBuilderMemBytes: the estimate grows as rows land, matches the
// finished partial's scale, and resets with Finish.
func TestPartialBuilderMemBytes(t *testing.T) {
	b, err := NewPartialBuilder([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if b.MemBytes() != 0 {
		t.Errorf("fresh builder MemBytes=%d", b.MemBytes())
	}
	tuples := streamTuples(100, 2)
	proj := make([][]catalog.Datum, len(tuples))
	for i, tup := range tuples {
		proj[i] = tup[:2]
	}
	feedBlocks(t, b, proj, 10)
	mid := b.MemBytes()
	if mid <= 0 {
		t.Fatalf("MemBytes=%d after 100 rows", mid)
	}
	feedBlocks(t, b, proj, 10)
	if after := b.MemBytes(); after <= mid {
		t.Errorf("MemBytes did not grow: %d -> %d", mid, after)
	}
	p := b.Finish()
	if b.MemBytes() != 0 {
		t.Errorf("MemBytes=%d after Finish", b.MemBytes())
	}
	if p.MemBytes() <= 0 {
		t.Errorf("finished partial MemBytes=%d", p.MemBytes())
	}
	// The collapsed partial retains at most what the builder held (duplicate
	// leading values collapse into frequencies).
	if p.MemBytes() > 2*mid+b.MemBytes() {
		t.Errorf("partial estimate %d out of scale with builder estimate %d", p.MemBytes(), mid)
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}

// BenchmarkStreamingPartialBuild measures per-build allocations of the
// streaming partition path; the statsbuild CI job runs it with
// -benchmem to watch for O(table) regressions in the builder itself.
func BenchmarkStreamingPartialBuild(b *testing.B) {
	tuples := streamTuples(8192, 7)
	cols := []string{"a", "b"}
	proj := make([][]catalog.Datum, len(tuples))
	for i, tup := range tuples {
		proj[i] = tup[:2]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb, err := NewPartialBuilder(cols)
		if err != nil {
			b.Fatal(err)
		}
		for start := 0; start < len(proj); start += 256 {
			end := start + 256
			if end > len(proj) {
				end = len(proj)
			}
			if err := pb.AddBlock(proj[start:end]); err != nil {
				b.Fatal(err)
			}
		}
		p := pb.Finish()
		if _, err := MergePartials(EquiDepth, cols, []*Partial{p}, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// freqKey is a valueFreq with the float payload as bits, so that
// reflect.DeepEqual tells -0 from +0 and one NaN from another (and calls a
// NaN equal to itself).
type freqKey struct {
	t     catalog.Type
	i     int64
	fbits uint64
	s     string
	null  bool
	f     int64
}

func freqKeys(freqs []valueFreq) []freqKey {
	out := make([]freqKey, len(freqs))
	for i, vf := range freqs {
		out[i] = freqKey{vf.v.T, vf.v.I, math.Float64bits(vf.v.F), vf.v.S, vf.v.Null, vf.f}
	}
	return out
}

// rankDatum maps a rank onto a value of the given type, order-preserving
// within the type: negative and positive ints, floats off the integers,
// strings that share a long prefix and include "".
func rankDatum(typ catalog.Type, rank int) catalog.Datum {
	switch typ {
	case catalog.Int:
		return catalog.NewInt(int64(rank) - 3)
	case catalog.Date:
		return catalog.NewDate(int64(rank) - 3)
	case catalog.Float:
		return catalog.NewFloat(float64(rank)/4 - 1)
	default:
		if rank == 0 {
			return catalog.NewString("")
		}
		return catalog.NewString(fmt.Sprintf("Customer#%06d", rank))
	}
}

// rankColumn draws n values of one type: 8 distinct values, a Zipf(2) draw
// over 1000, 470 distinct values spread over ranks 0 … 470 000 (the distinct
// count of l_extendedprice, over a domain no array could cover), or n
// distinct values in random order.
func rankColumn(rng *rand.Rand, typ catalog.Type, shape string, n int) []catalog.Datum {
	out := make([]catalog.Datum, n)
	switch shape {
	case "distinct8":
		for i := range out {
			out[i] = rankDatum(typ, rng.Intn(8))
		}
	case "wide470":
		for i := range out {
			out[i] = rankDatum(typ, rng.Intn(470)*1000)
		}
	case "zipf2":
		for i, r := range zipfInts(rng, n, 1000, 2) {
			out[i] = rankDatum(typ, int(r.I))
		}
	default:
		for i, r := range rng.Perm(n) {
			out[i] = rankDatum(typ, r)
		}
	}
	return out
}

var (
	runTypes = []struct {
		name string
		typ  catalog.Type
	}{{"int", catalog.Int}, {"date", catalog.Date}, {"float", catalog.Float}, {"string", catalog.String}}
	runShapes = []string{"distinct8", "zipf2", "wide470", "alldistinct"}
)

// TestTypedRunsMatchReference: the builder's typed runs and per-type merge
// must yield exactly the frequency list of collectFreqs, the Datum-sorting
// reference, down to the float bits of every representative — for each
// type alone, for NULLs, for every way types can meet in one column, at
// several block sizes, and again for a second partition through the same
// builder.
func TestTypedRunsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := map[string][]catalog.Datum{}
	for _, rt := range runTypes {
		for _, shape := range runShapes {
			cases[rt.name+"/"+shape] = rankColumn(rng, rt.typ, shape, 600)
		}
	}
	mix := func(cols ...[]catalog.Datum) []catalog.Datum {
		var out []catalog.Datum
		for _, c := range cols {
			out = append(out, c...)
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	nulls := func(typ catalog.Type, n int) []catalog.Datum {
		out := make([]catalog.Datum, n)
		for i := range out {
			out[i] = catalog.NewNull(typ)
		}
		return out
	}
	ints := func(n, domain int) []catalog.Datum {
		out := make([]catalog.Datum, n)
		for i := range out {
			out[i] = catalog.NewInt(int64(rng.Intn(domain)))
		}
		return out
	}
	wholeFloats := make([]catalog.Datum, 300)
	for i := range wholeFloats {
		wholeFloats[i] = catalog.NewFloat(float64(rng.Intn(12)) / 2) // every other one ties an Int
	}
	sameDays := make([]catalog.Datum, 300)
	for i := range sameDays {
		sameDays[i] = catalog.NewDate(int64(rng.Intn(6)))
	}
	otherNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1)
	edgeFloats := []catalog.Datum{
		catalog.NewFloat(0), catalog.NewFloat(negZero()), catalog.NewFloat(negZero()), catalog.NewFloat(0),
		catalog.NewFloat(math.NaN()), catalog.NewFloat(otherNaN), catalog.NewFloat(math.NaN()),
		catalog.NewFloat(math.Inf(1)), catalog.NewFloat(math.Inf(-1)), catalog.NewFloat(-2.5),
	}
	cases["nulls/some"] = mix(rankColumn(rng, catalog.Int, "distinct8", 300), nulls(catalog.Int, 80))
	cases["nulls/all"] = nulls(catalog.String, 50)
	cases["int+float/ties"] = mix(ints(300, 6), wholeFloats)
	cases["int+date"] = mix(ints(300, 6), sameDays)
	cases["string among numbers"] = mix(ints(200, 6), wholeFloats, rankColumn(rng, catalog.String, "distinct8", 40))
	cases["float/zeros and NaN"] = mix(edgeFloats, edgeFloats[4:7], rankColumn(rng, catalog.Float, "distinct8", 50))
	// Arrival order is kept by a short sort, so the first member of each of
	// these groups is not the one that must represent it.
	cases["float/larger bits first"] = []catalog.Datum{
		catalog.NewFloat(negZero()), catalog.NewFloat(0), catalog.NewFloat(otherNaN), catalog.NewFloat(math.NaN()),
	}
	cases["float/zeros tie an int"] = []catalog.Datum{catalog.NewFloat(negZero()), catalog.NewFloat(0), catalog.NewInt(0)}
	cases["everything"] = mix(ints(100, 6), wholeFloats, sameDays, edgeFloats, nulls(catalog.Float, 9),
		rankColumn(rng, catalog.String, "zipf2", 100))
	cases["empty"] = nil

	// Route boundaries (collapse.go): each of these runs is one type, and
	// wantRoute names the route it must take.
	const n = 600
	limit := distinctLimit(n)
	wantRoute := map[string]route{}
	spanned := func(span int64) []catalog.Datum {
		out := make([]catalog.Datum, n)
		for i := range out {
			out[i] = catalog.NewInt(span * int64(rng.Intn(8)) / 7)
		}
		out[0], out[1] = catalog.NewInt(0), catalog.NewInt(span)
		return out
	}
	cases["route/int span 2n-1"], wantRoute["route/int span 2n-1"] = spanned(2*n-1), routeArray
	cases["route/int span 2n"], wantRoute["route/int span 2n"] = spanned(2*n), routeMap
	extremes := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}
	overflow := make([]catalog.Datum, n)
	for i := range overflow {
		overflow[i] = catalog.NewInt(extremes[i%len(extremes)])
	}
	cases["route/int MinInt64..MaxInt64"], wantRoute["route/int MinInt64..MaxInt64"] = overflow, routeMap
	withDistinct := func(typ catalog.Type, d int) []catalog.Datum {
		out := make([]catalog.Datum, n)
		for i := range out {
			k := i
			if i >= d {
				k = rng.Intn(d)
			}
			out[i] = rankDatum(typ, k*1000)
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	for _, rt := range runTypes {
		cases["route/"+rt.name+" distinct=limit"] = withDistinct(rt.typ, limit)
		wantRoute["route/"+rt.name+" distinct=limit"] = routeMap
		cases["route/"+rt.name+" distinct=limit+1"] = withDistinct(rt.typ, limit+1)
		wantRoute["route/"+rt.name+" distinct=limit+1"] = routeSort
	}
	nanBits := math.Float64bits(math.NaN())
	payloads := []float64{0, negZero(), math.NaN(), otherNaN, math.Float64frombits(nanBits | 2),
		math.Float64frombits(nanBits | 1<<63), 1.5}
	counted := make([]catalog.Datum, n)
	for i := range counted {
		counted[i] = catalog.NewFloat(payloads[rng.Intn(len(payloads))])
	}
	cases["route/float zeros and NaN payloads"], wantRoute["route/float zeros and NaN payloads"] = counted, routeMap

	check := func(t *testing.T, what string, p *Partial, values []catalog.Datum) {
		t.Helper()
		ref, refNulls := collectFreqs(values)
		if p.nulls != refNulls || p.rows != int64(len(values)) {
			t.Errorf("%s: nulls=%d rows=%d, reference nulls=%d rows=%d", what, p.nulls, p.rows, refNulls, len(values))
		}
		if got, want := freqKeys(p.freqs), freqKeys(ref); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: frequency list differs from collectFreqs\n got %v\nwant %v", what, got, want)
		}
	}
	// checkRoute reports unless exactly one run took want since before.
	checkRoute := func(t *testing.T, what string, b *PartialBuilder, before [nRoutes]int, want route) {
		t.Helper()
		after := b.routes
		for r := range after {
			wantRuns := 0
			if route(r) == want {
				wantRuns = 1
			}
			if after[r]-before[r] != wantRuns {
				t.Errorf("%s: runs by route went %v -> %v, want one more on route %d", what, before, after, want)
				return
			}
		}
	}
	for name, values := range cases {
		t.Run(name, func(t *testing.T) {
			tuples := oneColumn(values)
			for _, bs := range []int{1, 7, 4096} {
				b, err := NewPartialBuilder([]string{"a"})
				if err != nil {
					t.Fatal(err)
				}
				feedBlocks(t, b, tuples, bs)
				check(t, fmt.Sprintf("block=%d", bs), b.Finish(), values)
				if want, ok := wantRoute[name]; ok {
					checkRoute(t, fmt.Sprintf("block=%d", bs), b, [nRoutes]int{}, want)
				}
				// Buffer reuse: a different partition through the same
				// builder must carry nothing over — no value, no NULL count.
				second := values[len(values)/3:]
				feedBlocks(t, b, tuples[len(values)/3:], bs)
				check(t, fmt.Sprintf("block=%d, second partition", bs), b.Finish(), second)
				check(t, fmt.Sprintf("block=%d, empty third partition", bs), b.Finish(), nil)
			}
		})
	}
	// One builder through every route in turn, each route right after a
	// fallback to the full sort: no count, key or array slot may carry over.
	t.Run("routes in sequence", func(t *testing.T) {
		b, err := NewPartialBuilder([]string{"a"})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{
			"route/float distinct=limit+1", "route/float zeros and NaN payloads",
			"route/int distinct=limit+1", "route/int distinct=limit",
			"route/date distinct=limit+1", "route/int span 2n-1",
			"route/string distinct=limit+1", "route/string distinct=limit",
			"route/int span 2n", "route/int MinInt64..MaxInt64",
		} {
			before := b.routes
			feedBlocks(t, b, oneColumn(cases[name]), 64)
			check(t, name, b.Finish(), cases[name])
			checkRoute(t, name, b, before, wantRoute[name])
		}
	})
}

// oneColumn makes each value a one-column tuple.
func oneColumn(values []catalog.Datum) [][]catalog.Datum {
	tuples := make([][]catalog.Datum, len(values))
	for i := range values {
		tuples[i] = values[i : i+1 : i+1]
	}
	return tuples
}

// fmtEncodePrefix is the prefix-key format as it was first written, kept as
// the reference for the append-based encoder: the two must render every
// tuple to the same collision-safe key.
func fmtEncodePrefix(t []catalog.Datum) string {
	var b strings.Builder
	for _, d := range t {
		if d.Null {
			b.WriteString("\x00N")
		} else {
			switch d.T {
			case catalog.String:
				fmt.Fprintf(&b, "\x00s%d:%s", len(d.S), d.S)
			case catalog.Float:
				fmt.Fprintf(&b, "\x00f%x", math.Float64bits(d.F))
			default:
				fmt.Fprintf(&b, "\x00i%d", d.I)
			}
		}
	}
	return b.String()
}

// TestPrefixKeysMatchFmtReference: encodePrefix and the builder's reused
// key buffer must produce the fmt-rendered keys byte for byte — over the
// mixed-type generators and the values whose rendering could plausibly
// drift (negative and extreme ints, -0, NaN, empty and NUL-bearing strings).
func TestPrefixKeysMatchFmtReference(t *testing.T) {
	edge := [][]catalog.Datum{
		{catalog.NewInt(math.MinInt64), catalog.NewFloat(negZero()), catalog.NewString("")},
		{catalog.NewInt(math.MaxInt64), catalog.NewFloat(math.NaN()), catalog.NewString("x\x00y")},
		{catalog.NewDate(-1), catalog.NewFloat(math.Inf(-1)), catalog.NewNull(catalog.String)},
		{catalog.NewNull(catalog.Date), catalog.NewFloat(1e-310), catalog.NewString("12:ab")},
	}
	tuples := append(append(randTuples(rand.New(rand.NewSource(5)), 400, 3), streamTuples(400, 6)...), edge...)
	want := []map[string]struct{}{{}, {}}
	for _, tup := range tuples {
		for k := 1; k <= 3; k++ {
			if got, ref := encodePrefix(tup[:k]), fmtEncodePrefix(tup[:k]); got != ref {
				t.Fatalf("encodePrefix(%v) = %q, fmt form %q", tup[:k], got, ref)
			}
		}
		want[0][fmtEncodePrefix(tup[:2])] = struct{}{}
		want[1][fmtEncodePrefix(tup[:3])] = struct{}{}
	}
	b, err := NewPartialBuilder([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	feedBlocks(t, b, tuples, 13)
	if got := b.Finish().prefixes; !reflect.DeepEqual(got, want) {
		t.Error("builder prefix sets differ from the fmt-rendered keys")
	}
}

var sinkPartial *Partial

// BenchmarkPartialBuilderFinish is the layer benchmark of one partition
// cut: 8192 rows (the production cut) of one type through AddBlock and
// Finish on a builder that, as in a real build, has already cut before.
// The shapes reach every collapse route: distinct8 and zipf2 the array route
// for ints and dates and the map route otherwise, wide470 the map route for
// every type, alldistinct the array route for ints and dates and the full
// sort otherwise.
func BenchmarkPartialBuilderFinish(b *testing.B) {
	for _, rt := range runTypes {
		for _, shape := range runShapes {
			b.Run(rt.name+"/"+shape, func(b *testing.B) {
				tuples := oneColumn(rankColumn(rand.New(rand.NewSource(3)), rt.typ, shape, 8192))
				pb, err := NewPartialBuilder([]string{"a"})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for start := 0; start < len(tuples); start += 1024 {
						if err := pb.AddBlock(tuples[start : start+1024]); err != nil {
							b.Fatal(err)
						}
					}
					sinkPartial = pb.Finish()
				}
				if shape == "wide470" && pb.routes != [nRoutes]int{routeMap: b.N} {
					b.Fatalf("runs by route %v, want all %d on the map route", pb.routes, b.N)
				}
			})
		}
	}
}
