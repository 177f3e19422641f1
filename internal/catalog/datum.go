// Package catalog defines the logical data model shared by every other
// subsystem: column types, datums (typed values), table and index metadata,
// and the database catalog itself.
//
// The catalog is deliberately independent of the physical storage layer
// (internal/storage) and of the optimizer; both consume it.
package catalog

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
)

// Type is the logical type of a column. It is a uint8 so that a Datum is
// 40 bytes (see Datum).
type Type uint8

const (
	// Int is a 64-bit signed integer column.
	Int Type = iota
	// Float is a 64-bit floating point column.
	Float
	// String is a variable-length string column.
	String
	// Date is a day-granularity date column, stored as days since epoch.
	Date
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case String:
		return "VARCHAR"
	case Date:
		return "DATE"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Datum is a single typed value. Exactly one of the value fields is
// meaningful, selected by T. Dates reuse the I field (days since epoch).
//
// Datum is a small value type passed by value throughout the system. It is
// 40 bytes on a 64-bit platform: T and Null share the first word, then come
// I, F and the two-word string header S. Type is a uint8 for that sharing;
// an int-sized T would leave Null a word of its own, 48 bytes in all. Rows
// are slices of Datums, so this size sets how much a scan reads and a stored
// row holds.
type Datum struct {
	T Type
	// Null marks the SQL NULL value; T is still set to the column type.
	Null bool
	I    int64
	F    float64
	S    string
}

// NewInt returns an Int datum.
func NewInt(v int64) Datum { return Datum{T: Int, I: v} }

// NewFloat returns a Float datum.
func NewFloat(v float64) Datum { return Datum{T: Float, F: v} }

// NewString returns a String datum.
func NewString(v string) Datum { return Datum{T: String, S: v} }

// NewDate returns a Date datum holding days since epoch.
func NewDate(days int64) Datum { return Datum{T: Date, I: days} }

// NewNull returns a NULL datum of type t.
func NewNull(t Type) Datum { return Datum{T: t, Null: true} }

// TryCompare orders d relative to other: -1 if d < other, 0 if equal, +1 if
// d > other. NULL sorts before every non-NULL value; Int and Float compare
// numerically across types, every NaN equal to every other and below every
// number. Any other type mix returns an error — reachable
// from parsed SQL that compares a column to a literal of an incompatible
// type, so it must surface as a query error, not a crash.
func (d Datum) TryCompare(other Datum) (int, error) {
	if d.Null || other.Null {
		switch {
		case d.Null && other.Null:
			return 0, nil
		case d.Null:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if d.T != other.T {
		if (d.T == Int || d.T == Float) && (other.T == Int || other.T == Float) {
			return cmpFloat(d.asFloat(), other.asFloat()), nil
		}
		return 0, fmt.Errorf("catalog: cannot compare incompatible types %s and %s", d.T, other.T)
	}
	switch d.T {
	case Int, Date:
		switch {
		case d.I < other.I:
			return -1, nil
		case d.I > other.I:
			return 1, nil
		default:
			return 0, nil
		}
	case Float:
		return cmpFloat(d.F, other.F), nil
	case String:
		return strings.Compare(d.S, other.S), nil
	default:
		return 0, fmt.Errorf("catalog: cannot compare unknown type %s", d.T)
	}
}

// Compare is TryCompare for contexts that need a total order and never mix
// types — sorting one column's values, histogram construction. It cannot
// fail: operands TryCompare rejects (incompatible or unknown types) order
// deterministically by type code, so a sort over heterogeneous data stays
// stable instead of crashing. Predicate evaluation must use TryCompare so a
// type mismatch surfaces as an error.
func (d Datum) Compare(other Datum) int {
	c, err := d.TryCompare(other)
	if err != nil {
		return cmpInt64(int64(d.T), int64(other.T))
	}
	return c
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpFloat keeps Compare a total order in the presence of NaN: a NaN equals
// every NaN and sorts before every number (-0 and +0 stay equal). Answering
// 0 for NaN against anything would make a sort comparator inconsistent.
func cmpFloat(a, b float64) int { return cmp.Compare(a, b) }

func (d Datum) asFloat() float64 {
	if d.T == Float {
		return d.F
	}
	return float64(d.I)
}

// ToFloat converts a numeric datum to float64 for histogram bucketing.
// Strings hash-order through their first bytes so histograms can still
// bucket them; see stringRank.
func (d Datum) ToFloat() float64 {
	switch d.T {
	case Int, Date:
		return float64(d.I)
	case Float:
		return d.F
	case String:
		return stringRank(d.S)
	default:
		return 0
	}
}

// stringRank maps a string onto a float preserving lexicographic order for
// the first eight bytes. It gives histograms a total order over strings
// without storing full values in bucket boundaries.
func stringRank(s string) float64 {
	var r float64
	scale := 1.0
	for i := 0; i < 8; i++ {
		scale /= 256
		var b byte
		if i < len(s) {
			b = s[i]
		}
		r += float64(b) * scale
	}
	return r
}

// String renders the datum as a SQL literal.
func (d Datum) String() string {
	if d.Null {
		return "NULL"
	}
	switch d.T {
	case Int:
		return strconv.FormatInt(d.I, 10)
	case Date:
		return "DATE " + strconv.FormatInt(d.I, 10)
	case Float:
		return strconv.FormatFloat(d.F, 'g', -1, 64)
	case String:
		return "'" + strings.ReplaceAll(d.S, "'", "''") + "'"
	default:
		return "?"
	}
}

// AppendString appends the SQL literal String returns to dst, without an
// allocation of its own.
func (d Datum) AppendString(dst []byte) []byte {
	if d.Null {
		return append(dst, "NULL"...)
	}
	switch d.T {
	case Int:
		return strconv.AppendInt(dst, d.I, 10)
	case Date:
		return strconv.AppendInt(append(dst, "DATE "...), d.I, 10)
	case Float:
		return strconv.AppendFloat(dst, d.F, 'g', -1, 64)
	case String:
		dst = append(dst, '\'')
		s := d.S
		for i := strings.IndexByte(s, '\''); i >= 0; i = strings.IndexByte(s, '\'') {
			dst = append(append(dst, s[:i+1]...), '\'')
			s = s[i+1:]
		}
		return append(append(dst, s...), '\'')
	default:
		return append(dst, '?')
	}
}
