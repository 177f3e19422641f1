package catalog

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestDatumSize holds Datum to the 40-byte layout its comment gives.
func TestDatumSize(t *testing.T) {
	if n := unsafe.Sizeof(Datum{}); unsafe.Sizeof(uintptr(0)) == 8 && n != 40 {
		t.Errorf("a Datum is %d bytes, want 40", n)
	}
}

func TestDatumCompareInts(t *testing.T) {
	cases := []struct {
		a, b int64
		want int
	}{
		{1, 2, -1}, {2, 1, 1}, {5, 5, 0}, {-3, 3, -1}, {0, 0, 0},
	}
	for _, c := range cases {
		if got := NewInt(c.a).Compare(NewInt(c.b)); got != c.want {
			t.Errorf("Compare(%d,%d)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDatumCompareCrossNumeric(t *testing.T) {
	if got := NewInt(2).Compare(NewFloat(2.5)); got != -1 {
		t.Errorf("int 2 vs float 2.5 = %d, want -1", got)
	}
	if got := NewFloat(3.0).Compare(NewInt(3)); got != 0 {
		t.Errorf("float 3.0 vs int 3 = %d, want 0", got)
	}
}

func TestDatumCompareStrings(t *testing.T) {
	if got := NewString("apple").Compare(NewString("banana")); got != -1 {
		t.Errorf("apple vs banana = %d", got)
	}
	if got := NewString("x").Compare(NewString("x")); got != 0 {
		t.Errorf("x vs x = %d", got)
	}
}

func TestDatumNullOrdering(t *testing.T) {
	n := NewNull(Int)
	if got := n.Compare(NewInt(-1 << 60)); got != -1 {
		t.Errorf("NULL should sort before any value, got %d", got)
	}
	if got := NewInt(0).Compare(n); got != 1 {
		t.Errorf("value vs NULL = %d, want 1", got)
	}
	if got := n.Compare(NewNull(Int)); got != 0 {
		t.Errorf("NULL vs NULL = %d, want 0", got)
	}
}

func TestDatumTryCompareIncompatible(t *testing.T) {
	if _, err := NewString("a").TryCompare(NewInt(1)); err == nil {
		t.Error("expected error comparing string with int")
	}
	if _, err := NewInt(1).TryCompare(NewString("a")); err == nil {
		t.Error("expected error comparing int with string")
	}
	if _, err := NewDate(1).TryCompare(NewFloat(1)); err == nil {
		t.Error("expected error comparing date with float")
	}
	if c, err := NewInt(2).TryCompare(NewFloat(2.5)); err != nil || c != -1 {
		t.Errorf("int vs float must stay comparable: c=%d err=%v", c, err)
	}
}

// TestDatumCompareTotalOrder: Compare never panics; incompatible types fall
// back to ordering by type code so sorts and histogram builds stay total.
func TestDatumCompareTotalOrder(t *testing.T) {
	s, i := NewString("a"), NewInt(1)
	cs, ci := s.Compare(i), i.Compare(s)
	if cs == 0 || ci == 0 || cs == ci {
		t.Errorf("incompatible types must order deterministically and antisymmetrically: %d vs %d", cs, ci)
	}
	// NaN has one place in the order: equal to every NaN, below every
	// number of either numeric type; the two zeros stay equal.
	nan, negZero := NewFloat(math.NaN()), NewFloat(math.Copysign(0, -1))
	for _, d := range []Datum{NewFloat(math.Inf(-1)), NewFloat(0), NewInt(-7)} {
		if nan.Compare(d) != -1 || d.Compare(nan) != 1 {
			t.Errorf("NaN vs %s: %d / %d, want -1 / 1", d, nan.Compare(d), d.Compare(nan))
		}
	}
	if nan.Compare(nan) != 0 || negZero.Compare(NewFloat(0)) != 0 || NewInt(0).Compare(negZero) != 0 {
		t.Error("NaN must equal NaN and -0 must equal +0")
	}
}

// TestStringRankPreservesOrder: stringRank must order strings consistently
// with lexicographic order for strings differing within 8 bytes.
func TestStringRankPreservesOrder(t *testing.T) {
	f := func(a, b string) bool {
		// Truncate to 8 significant bytes — beyond that stringRank ties.
		ta, tb := trunc8(a), trunc8(b)
		ra, rb := stringRank(ta), stringRank(tb)
		switch strings.Compare(ta, tb) {
		case -1:
			return ra <= rb
		case 1:
			return ra >= rb
		default:
			return ra == rb
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func trunc8(s string) string {
	if len(s) > 8 {
		return s[:8]
	}
	return s
}

// TestStringRankStrictOrder checks sorted distinct short strings map to
// nondecreasing ranks.
func TestStringRankSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ss []string
	for i := 0; i < 200; i++ {
		b := make([]byte, 1+rng.Intn(6))
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		ss = append(ss, string(b))
	}
	sort.Strings(ss)
	for i := 1; i < len(ss); i++ {
		if stringRank(ss[i-1]) > stringRank(ss[i]) {
			t.Fatalf("rank order violated: %q > %q", ss[i-1], ss[i])
		}
	}
}

func TestDatumToFloat(t *testing.T) {
	if NewInt(42).ToFloat() != 42 {
		t.Error("int ToFloat")
	}
	if NewFloat(2.5).ToFloat() != 2.5 {
		t.Error("float ToFloat")
	}
	if NewDate(8035).ToFloat() != 8035 {
		t.Error("date ToFloat")
	}
}

func TestDatumStringRendering(t *testing.T) {
	cases := []struct {
		d    Datum
		want string
	}{
		{NewInt(7), "7"},
		{NewFloat(2.5), "2.5"},
		{NewString("it's"), "'it''s'"},
		{NewDate(8035), "DATE 8035"},
		{NewNull(String), "NULL"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// TestDatumAppendStringMatchesString: the append form renders every type,
// NULL of every type and quote-bearing strings exactly as String does, behind
// whatever dst already holds.
func TestDatumAppendStringMatchesString(t *testing.T) {
	data := []Datum{
		NewInt(0), NewInt(-7), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewDate(8035), NewDate(-1),
		NewFloat(0), NewFloat(2.5), NewFloat(-1e21), NewFloat(1e-7), NewFloat(math.Inf(1)), NewFloat(math.NaN()),
		NewString(""), NewString("plain"), NewString("it's"), NewString("''"), NewString("'lead and trail'"), NewString("Zürich"),
		NewNull(Int), NewNull(Float), NewNull(String), NewNull(Date),
		{T: Type(9)},
	}
	for _, d := range data {
		if got, want := string(d.AppendString([]byte("x="))), "x="+d.String(); got != want {
			t.Errorf("AppendString = %q, String gives %q", got, want)
		}
	}
}

func TestTypeString(t *testing.T) {
	for typ, want := range map[Type]string{Int: "INT", Float: "FLOAT", String: "VARCHAR", Date: "DATE"} {
		if typ.String() != want {
			t.Errorf("%v.String() = %q", int(typ), typ.String())
		}
	}
}
