package histogram

import (
	"bytes"
	"fmt"
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

// TestPartialCodecRoundtrip: Encode/Decode must reproduce the partial
// exactly — reflect.DeepEqual on the full struct including tie-break float
// bits — and partials that passed through the codec must merge to the same
// histogram as the originals.
func TestPartialCodecRoundtrip(t *testing.T) {
	tuples := streamTuples(321, 3)
	cols := []string{"a", "b", "c"}
	parts := SplitTuples(tuples, 4)
	var orig, decoded []*Partial
	for _, part := range parts {
		p, err := BuildPartial(cols, part)
		if err != nil {
			t.Fatal(err)
		}
		orig = append(orig, p)
		var buf bytes.Buffer
		if err := EncodePartial(&buf, p); err != nil {
			t.Fatal(err)
		}
		q, err := DecodePartial(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatal("decoded partial differs from original")
		}
		decoded = append(decoded, q)
	}
	for _, kind := range []Kind{EquiDepth, MaxDiff} {
		want, err := MergePartials(kind, cols, orig, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MergePartials(kind, cols, decoded, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("kind=%v: merge of decoded partials differs", kind)
		}
	}
}

// TestPartialCodecFloatBits: negative zero, NaN-adjacent bit patterns and
// NULL datums must survive the roundtrip bit-for-bit, since tieBreak
// compares Float64bits.
func TestPartialCodecFloatBits(t *testing.T) {
	vals := []catalog.Datum{
		catalog.NewFloat(0.0),
		{T: catalog.Float, F: negZero()},
		catalog.NewFloat(5.0),
		catalog.NewInt(5),
		catalog.NewNull(catalog.Float),
		catalog.NewString(""),
		catalog.NewString("x\x00y"),
		catalog.NewDate(19000),
	}
	tuples := make([][]catalog.Datum, len(vals))
	for i, v := range vals {
		tuples[i] = []catalog.Datum{v}
	}
	p, err := BuildPartial([]string{"a"}, tuples)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodePartial(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := DecodePartial(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Error("edge-case datums did not survive the codec roundtrip")
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}

// TestPartialCodecCorrupt: garbage input errors instead of yielding a bogus
// partial.
func TestPartialCodecCorrupt(t *testing.T) {
	if _, err := DecodePartial(strings.NewReader("not a spill file")); err == nil {
		t.Error("no error for bad magic")
	}
	if _, err := DecodePartial(strings.NewReader("")); err == nil {
		t.Error("no error for empty input")
	}
	// Truncated body after a valid header.
	tuples := streamTuples(50, 4)
	proj := make([][]catalog.Datum, len(tuples))
	for i, tup := range tuples {
		proj[i] = tup[:1]
	}
	p, err := BuildPartial([]string{"a"}, proj)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodePartial(&buf, p); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := DecodePartial(bytes.NewReader(trunc)); err == nil {
		t.Error("no error for truncated spill file")
	}
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
