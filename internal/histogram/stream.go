package histogram

import (
	"fmt"

	"autostats/internal/catalog"
)

// Block-at-a-time partial construction. A PartialBuilder accumulates one
// partition's worth of tuples block by block and finalizes into a Partial
// that depends only on the multiset of tuples added, not on how they were
// blocked — so a build that feeds its partials to MergePartials stays
// bitwise-identical to a single-pass BuildMulti, which is what the streaming
// differential oracle asserts. Memory held by a builder is O(rows added
// since the last Finish), i.e. one partition, plus the distinct-prefix sets;
// the caller bounds the partition size.

// datumBytes is the rough in-memory footprint of one catalog.Datum: the
// struct itself (type tag, int64, float64, string header, null flag) plus
// the string payload. It is what a collapsed Partial retains per distinct
// value; the builder's typed runs are charged what they hold instead.
func datumBytes(d catalog.Datum) int64 {
	return 48 + int64(len(d.S))
}

// Retained bytes per buffered leading value: a number is its 8-byte payload,
// a string its header plus payload. NULLs are only counted.
const (
	numberBytes       = 8
	stringHeaderBytes = 16
)

// PartialBuilder accumulates one partition of a streaming statistics build.
// Not safe for concurrent use. The zero value is not usable; construct with
// NewPartialBuilder.
type PartialBuilder struct {
	cols  int
	rows  int64
	nulls int64
	// One run per leading-value type buffers the partition's non-NULL
	// leading payloads until Finish collapses them — the O(partition)
	// memory the streaming design bounds. Payloads, not Datums: counting or
	// sorting 8-byte numbers or string headers natively is several times
	// cheaper than sorting 48-byte Datums through Datum.Compare, and the
	// numeric runs hold no pointers for the collector to scan. A real column
	// fills exactly one run; the backing arrays are kept across Finish
	// calls.
	ints   []int64
	dates  []int64
	floats []float64
	strs   []string
	// prefixes[k-2] collects the distinct k-column prefix encodings.
	prefixes []map[string]struct{}
	// key is the reused prefix-encoding buffer: only a prefix not yet in its
	// set is copied out of it into a map key.
	key []byte
	// bytes is the running count of the bytes the builder retains (typed
	// runs + prefix keys).
	bytes int64
	// routes counts the runs each collapse route has taken since the
	// builder was made, so that a test can tell which route a shape reached.
	routes [nRoutes]int
}

// NewPartialBuilder starts an empty partition summary over len(columns)
// tuple positions.
func NewPartialBuilder(columns []string) (*PartialBuilder, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("histogram: partial statistic needs at least one column")
	}
	b := &PartialBuilder{cols: len(columns)}
	b.prefixes = newPrefixSets(b.cols)
	return b, nil
}

// newPrefixSets returns one empty distinct set per non-leading prefix (nil
// for a single-column statistic).
func newPrefixSets(cols int) []map[string]struct{} {
	if cols < 2 {
		return nil
	}
	sets := make([]map[string]struct{}, cols-1)
	for i := range sets {
		sets[i] = make(map[string]struct{})
	}
	return sets
}

// AddBlock folds one block of tuples into the partition. The tuples (and
// the block slice) may be reused by the caller after the call returns: the
// builder copies everything it retains. A block with a tuple of the wrong
// arity or a non-NULL leading datum of an unknown type is rejected whole,
// leaving the partition as it was.
func (b *PartialBuilder) AddBlock(tuples [][]catalog.Datum) error {
	for _, t := range tuples {
		if len(t) != b.cols {
			return fmt.Errorf("histogram: tuple arity %d does not match %d columns", len(t), b.cols)
		}
		switch d := &t[0]; d.T {
		case catalog.Int, catalog.Float, catalog.String, catalog.Date:
		default:
			if !d.Null {
				return fmt.Errorf("histogram: leading datum of unknown type %s", d.T)
			}
		}
	}
	for _, t := range tuples {
		// Only the payload is copied. A string's bytes are shared with the
		// table row, which is immutable once published, so no deep copy is
		// needed.
		switch d := &t[0]; {
		case d.Null:
			b.nulls++
		case d.T == catalog.Int:
			b.ints = append(b.ints, d.I)
			b.bytes += numberBytes
		case d.T == catalog.Date:
			b.dates = append(b.dates, d.I)
			b.bytes += numberBytes
		case d.T == catalog.Float:
			b.floats = append(b.floats, d.F)
			b.bytes += numberBytes
		default:
			b.strs = append(b.strs, d.S)
			b.bytes += stringHeaderBytes + int64(len(d.S))
		}
		if b.cols > 1 {
			// The k-column key extends the (k-1)-column key, so one pass
			// over the tuple yields every prefix.
			b.key = appendPrefixDatum(b.key[:0], &t[0])
			for k := 2; k <= b.cols; k++ {
				b.key = appendPrefixDatum(b.key, &t[k-1])
				set := b.prefixes[k-2]
				if _, ok := set[string(b.key)]; !ok {
					set[string(b.key)] = struct{}{}
					b.bytes += int64(len(b.key)) + 48
				}
			}
		}
	}
	b.rows += int64(len(tuples))
	return nil
}

// Rows returns the tuples accumulated since construction (or the last
// Finish).
func (b *PartialBuilder) Rows() int64 { return b.rows }

// MemBytes returns the bytes the builder retains: 8 per buffered number, 16
// plus the payload per buffered string, and the distinct prefix keys on the
// scale Partial.MemBytes uses for them.
func (b *PartialBuilder) MemBytes() int64 { return b.bytes }

// Finish collapses the accumulated partition into a Partial and resets the
// builder for the next partition. Finishing an empty builder yields a valid
// zero-row Partial.
//
// Each non-empty run is collapsed to a (value, frequency) list by its type's
// collapse function, which counts the run into an array or a map when it has
// few distinct values and sorts it in full otherwise (collapse.go), and the
// per-type lists are combined by mergeFreqLists — the merge MergePartials
// already applies across partitions. Within one type Datum.Compare is the
// native order, and across types the merge's Compare + tieBreak rule is by
// definition what one cmpValue sort over the mixed values yields (Int 5 and
// Float 5.0 collapse with the Int representing them; numbers, then strings,
// then dates), so heterogeneous input needs no second path and a one-type
// column pays for no merge.
func (b *PartialBuilder) Finish() *Partial {
	p := &Partial{cols: b.cols, rows: b.rows, nulls: b.nulls, prefixes: b.prefixes}
	lists := make([][]valueFreq, 0, 4)
	collapsed := func(l []valueFreq, r route) {
		lists = append(lists, l)
		b.routes[r]++
	}
	c := getCounts()
	c.largest = max(c.largest, len(b.ints), len(b.floats), len(b.strs), len(b.dates))
	if len(b.ints) > 0 {
		collapsed(c.collapseIntRun(b.ints, catalog.NewInt))
	}
	if len(b.floats) > 0 {
		collapsed(c.collapseFloatRun(b.floats))
	}
	if len(b.strs) > 0 {
		collapsed(c.collapseStringRun(b.strs))
	}
	if len(b.dates) > 0 {
		collapsed(c.collapseIntRun(b.dates, catalog.NewDate))
	}
	putCounts(c)
	p.freqs = mergeFreqLists(lists)
	// The collapsed lists are copies, so the runs are free for the next
	// partition. Regrowing them by append doubling after every cut would
	// cost a fifth of a tuning round's allocation volume. The string run is
	// cleared first: stale headers past the new length would keep a
	// finished partition's strings reachable.
	b.ints, b.dates, b.floats = b.ints[:0], b.dates[:0], b.floats[:0]
	clear(b.strs)
	b.strs = b.strs[:0]
	b.rows, b.nulls, b.bytes = 0, 0, 0
	b.prefixes = newPrefixSets(b.cols)
	return p
}

// MemBytes estimates the partial's retained memory: the collapsed frequency
// list plus the distinct-prefix sets. The statistics manager sums it into
// its stats.build.mem_peak_bytes gauge.
func (p *Partial) MemBytes() int64 {
	// valueFreq is a Datum plus an int64 frequency.
	var n int64
	for _, vf := range p.freqs {
		n += datumBytes(vf.v) + 8
	}
	for _, set := range p.prefixes {
		for key := range set {
			n += int64(len(key)) + 48
		}
	}
	return n
}
