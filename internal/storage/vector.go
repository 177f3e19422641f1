package storage

import (
	"cmp"
	"math"
	"strings"

	"autostats/internal/catalog"
)

// vector is one column of a table stored by type, beside the rows: the value
// of row id is ints[id] (Int, Date), floats[id] (Float) or strs[id]
// (String), unless row id is NULL. A string shares its row's bytes. It holds
// every row the rows do, dead ones included, so the tombstones serve both.
// A statistic build reads the vectors, where the next row's value of a
// column is the next word, instead of one datum out of every row.
type vector struct {
	typ    catalog.Type
	ints   []int64
	floats []float64
	strs   []string
	// nulls has bit id%64 of word id/64 set when row id is NULL. It grows
	// only as far as the last NULL written, so a column that never held a
	// NULL keeps it empty.
	nulls []uint64
}

func newVector(typ catalog.Type, capacity int) vector {
	v := vector{typ: typ}
	switch typ {
	case catalog.Int, catalog.Date:
		v.ints = make([]int64, 0, capacity)
	case catalog.Float:
		v.floats = make([]float64, 0, capacity)
	case catalog.String:
		v.strs = make([]string, 0, capacity)
	}
	return v
}

// canonical reports whether d is what typ's constructor builds: T is typ,
// and no payload field other than the one typ uses is set (none for NULL).
// Only such a datum reads back from a vector unchanged.
func canonical(d catalog.Datum, typ catalog.Type) bool {
	if d.T != typ {
		return false
	}
	noI, noF, noS := d.I == 0, math.Float64bits(d.F) == 0, d.S == ""
	switch {
	case d.Null:
		return noI && noF && noS
	case typ == catalog.Int || typ == catalog.Date:
		return noF && noS
	case typ == catalog.Float:
		return noI && noS
	case typ == catalog.String:
		return noI && noF
	}
	return false
}

// push appends a row's value. d must be canonical for the vector's type.
func (v *vector) push(d catalog.Datum) {
	switch v.typ {
	case catalog.Int, catalog.Date:
		v.ints = append(v.ints, d.I)
	case catalog.Float:
		v.floats = append(v.floats, d.F)
	case catalog.String:
		v.strs = append(v.strs, d.S)
	}
	if d.Null {
		v.setNull(v.len()-1, true)
	}
}

// set overwrites row id's value. d must be canonical for the vector's type.
func (v *vector) set(id int, d catalog.Datum) {
	switch v.typ {
	case catalog.Int, catalog.Date:
		v.ints[id] = d.I
	case catalog.Float:
		v.floats[id] = d.F
	case catalog.String:
		v.strs[id] = d.S
	}
	v.setNull(id, d.Null)
}

func (v *vector) len() int {
	return max(len(v.ints), len(v.floats), len(v.strs))
}

func (v *vector) setNull(id int, null bool) {
	w, bit := id/64, uint64(1)<<(id%64)
	if null {
		for len(v.nulls) <= w {
			v.nulls = append(v.nulls, 0)
		}
		v.nulls[w] |= bit
	} else if w < len(v.nulls) {
		v.nulls[w] &^= bit
	}
}

func (v *vector) null(id int) bool {
	w := id / 64
	return w < len(v.nulls) && v.nulls[w]&(uint64(1)<<(id%64)) != 0
}

// datum returns row id's value as the datum the row holds.
func (v *vector) datum(id int) catalog.Datum {
	if v.null(id) {
		return catalog.NewNull(v.typ)
	}
	switch v.typ {
	case catalog.Float:
		return catalog.NewFloat(v.floats[id])
	case catalog.String:
		return catalog.NewString(v.strs[id])
	default:
		return catalog.Datum{T: v.typ, I: v.ints[id]}
	}
}

// compare orders rows a and b by value as catalog.Datum.Compare orders their
// datums: NULL first, then by value, every NaN equal and below every number.
func (v *vector) compare(a, b int) int {
	if len(v.nulls) > 0 {
		if na, nb := v.null(a), v.null(b); na || nb {
			switch {
			case na && nb:
				return 0
			case na:
				return -1
			default:
				return 1
			}
		}
	}
	switch v.typ {
	case catalog.Float:
		return cmp.Compare(v.floats[a], v.floats[b])
	case catalog.String:
		return strings.Compare(v.strs[a], v.strs[b])
	default:
		return cmp.Compare(v.ints[a], v.ints[b])
	}
}

// compareTo orders row id's value against d as catalog.Datum.Compare does,
// without building a datum when both are non-NULL values of the vector's
// type.
func (v *vector) compareTo(id int, d *catalog.Datum) int {
	if d.T != v.typ || d.Null || v.null(id) {
		return v.datum(id).Compare(*d)
	}
	switch v.typ {
	case catalog.Float:
		return cmp.Compare(v.floats[id], d.F)
	case catalog.String:
		return strings.Compare(v.strs[id], d.S)
	default:
		return cmp.Compare(v.ints[id], d.I)
	}
}

// gather writes the values of rows ids to dst[0], dst[stride],
// dst[2·stride], …: one column of a block of row-major tuples.
func (v *vector) gather(dst []catalog.Datum, stride int, ids []int32) {
	switch v.typ {
	case catalog.Float:
		for k, id := range ids {
			dst[k*stride] = catalog.NewFloat(v.floats[id])
		}
	case catalog.String:
		for k, id := range ids {
			dst[k*stride] = catalog.NewString(v.strs[id])
		}
	default:
		for k, id := range ids {
			dst[k*stride] = catalog.Datum{T: v.typ, I: v.ints[id]}
		}
	}
	if len(v.nulls) > 0 {
		for k, id := range ids {
			if v.null(int(id)) {
				dst[k*stride] = catalog.NewNull(v.typ)
			}
		}
	}
}
