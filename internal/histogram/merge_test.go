package histogram

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"autostats/internal/catalog"
)

// randTuples generates width-column tuples with skewed integer values and a
// sprinkling of NULLs and strings, the mix the merge path must reproduce
// exactly.
func randTuples(rng *rand.Rand, n, width int) [][]catalog.Datum {
	out := make([][]catalog.Datum, n)
	for i := range out {
		t := make([]catalog.Datum, width)
		for c := range t {
			switch rng.Intn(10) {
			case 0:
				t[c] = catalog.Datum{Null: true}
			case 1:
				t[c] = catalog.NewString([]string{"aa", "bb", "cc", "dd"}[rng.Intn(4)])
			case 2:
				t[c] = catalog.NewFloat(float64(rng.Intn(50)) / 4)
			default:
				// Zipf-ish skew: small values dominate.
				t[c] = catalog.NewInt(int64(rng.Intn(rng.Intn(200) + 1)))
			}
		}
		out[i] = t
	}
	return out
}

// TestMergePartialsMatchesBuildMulti: MergePartials over SplitTuples must be
// bitwise-identical to BuildMulti for every kind, width, size and partition
// count — the exactness claim the differential oracle leans on.
func TestMergePartialsMatchesBuildMulti(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, kind := range []Kind{EquiDepth, MaxDiff} {
		for _, width := range []int{1, 2, 3} {
			for _, n := range []int{0, 1, 17, 500} {
				cols := []string{"a", "b", "c"}[:width]
				tuples := randTuples(rng, n, width)
				for _, buckets := range []int{0, 8} {
					want, err := BuildMulti(kind, cols, tuples, buckets)
					if err != nil {
						t.Fatal(err)
					}
					for _, parts := range []int{1, 2, 4, 7} {
						var partials []*Partial
						for _, chunk := range SplitTuples(tuples, parts) {
							p, err := BuildPartial(cols, chunk)
							if err != nil {
								t.Fatal(err)
							}
							partials = append(partials, p)
						}
						got, err := MergePartials(kind, cols, partials, buckets)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("%v width=%d n=%d buckets=%d parts=%d: merged build differs\nwant %+v\ngot  %+v",
								kind, width, n, buckets, parts, want, got)
						}
					}
				}
			}
		}
	}
}

// TestMergePartialsOrderIndependent: permuting the partition order must not
// change the merged statistic. Two inputs: even chunks, each built in one
// shot, and randomly sized blocks fed to one PartialBuilder that cuts a
// partial after a random third of them, as a block scan does. Every shuffled
// merge must equal the single-pass BuildMulti reference.
func TestMergePartialsOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cols := []string{"a", "b"}
	tuples := randTuples(rng, 300, 2)
	want, err := BuildMulti(MaxDiff, cols, tuples, 16)
	if err != nil {
		t.Fatal(err)
	}
	var even []*Partial
	for _, c := range SplitTuples(tuples, 4) {
		p, err := BuildPartial(cols, c)
		if err != nil {
			t.Fatal(err)
		}
		even = append(even, p)
	}
	randomCuts := func() []*Partial {
		b, err := NewPartialBuilder(cols)
		if err != nil {
			t.Fatal(err)
		}
		var parts []*Partial
		for pos := 0; pos < len(tuples); {
			n := min(1+rng.Intn(97), len(tuples)-pos)
			if err := b.AddBlock(tuples[pos : pos+n]); err != nil {
				t.Fatal(err)
			}
			pos += n
			if rng.Intn(3) == 0 {
				parts = append(parts, b.Finish())
			}
		}
		if b.Rows() > 0 || len(parts) == 0 {
			parts = append(parts, b.Finish())
		}
		return parts
	}
	for _, in := range []struct {
		name  string
		parts func() []*Partial
	}{
		{"even chunks", func() []*Partial { return slices.Clone(even) }},
		{"random cuts", randomCuts},
	} {
		for trial := 0; trial < 5; trial++ {
			parts := in.parts()
			rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
			got, err := MergePartials(MaxDiff, cols, parts, 16)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s trial %d: merging %d partials in shuffled order differs from BuildMulti", in.name, trial, len(parts))
			}
		}
	}
}

// TestMergePartialsArityMismatch: mismatched partials must error, not panic.
func TestMergePartialsArityMismatch(t *testing.T) {
	p1, err := BuildPartial([]string{"a"}, [][]catalog.Datum{{catalog.NewInt(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergePartials(MaxDiff, []string{"a", "b"}, []*Partial{p1}, 0); err == nil {
		t.Fatal("expected arity mismatch error")
	}
	if _, err := BuildPartial(nil, nil); err == nil {
		t.Fatal("expected no-columns error")
	}
	if _, err := BuildPartial([]string{"a"}, [][]catalog.Datum{{catalog.NewInt(1), catalog.NewInt(2)}}); err == nil {
		t.Fatal("expected tuple arity error")
	}
}

func TestSplitTuples(t *testing.T) {
	tuples := randTuples(rand.New(rand.NewSource(3)), 10, 1)
	for _, k := range []int{-1, 0, 1, 3, 10, 25} {
		parts := SplitTuples(tuples, k)
		var total int
		for _, p := range parts {
			total += len(p)
		}
		if total != len(tuples) {
			t.Fatalf("k=%d: split covers %d of %d tuples", k, total, len(tuples))
		}
		if k > 1 && len(parts) > k {
			t.Fatalf("k=%d: %d partitions", k, len(parts))
		}
	}
	if parts := SplitTuples(nil, 4); len(parts) != 1 || len(parts[0]) != 0 {
		t.Fatalf("empty input: got %d partitions", len(parts))
	}
}
