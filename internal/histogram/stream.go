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
// the string payload. It feeds the build-memory budget accounting — an
// estimate that only has to be consistent, not exact, since spill decisions
// and the peak-memory gauge both use the same scale.
func datumBytes(d catalog.Datum) int64 {
	return 48 + int64(len(d.S))
}

// PartialBuilder accumulates one partition of a streaming statistics build.
// Not safe for concurrent use. The zero value is not usable; construct with
// NewPartialBuilder.
type PartialBuilder struct {
	cols int
	rows int64
	// leading buffers the partition's leading-column values for the Finish
	// sort — the O(partition) memory the streaming design bounds. The
	// backing array is kept across Finish calls.
	leading []catalog.Datum
	// prefixes[k-2] collects the distinct k-column prefix encodings.
	prefixes []map[string]struct{}
	// bytes is the running memory estimate of everything the builder
	// retains (leading values + prefix keys).
	bytes int64
}

// NewPartialBuilder starts an empty partition summary over len(columns)
// tuple positions.
func NewPartialBuilder(columns []string) (*PartialBuilder, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("histogram: partial statistic needs at least one column")
	}
	b := &PartialBuilder{cols: len(columns)}
	if len(columns) > 1 {
		b.prefixes = make([]map[string]struct{}, len(columns)-1)
		for i := range b.prefixes {
			b.prefixes[i] = make(map[string]struct{})
		}
	}
	return b, nil
}

// AddBlock folds one block of tuples into the partition. The tuples (and
// the block slice) may be reused by the caller after the call returns: the
// builder copies everything it retains.
func (b *PartialBuilder) AddBlock(tuples [][]catalog.Datum) error {
	for _, t := range tuples {
		if len(t) != b.cols {
			return fmt.Errorf("histogram: tuple arity %d does not match %d columns", len(t), b.cols)
		}
	}
	for _, t := range tuples {
		// catalog.Datum is a value type; appending copies it. The string
		// payload is shared with the table row, which is immutable once
		// published, so no deep copy is needed.
		b.leading = append(b.leading, t[0])
		b.bytes += datumBytes(t[0])
		for k := 2; k <= b.cols; k++ {
			key := encodePrefix(t[:k])
			if _, ok := b.prefixes[k-2][key]; !ok {
				b.prefixes[k-2][key] = struct{}{}
				b.bytes += int64(len(key)) + 48
			}
		}
	}
	b.rows += int64(len(tuples))
	return nil
}

// Rows returns the tuples accumulated since construction (or the last
// Finish).
func (b *PartialBuilder) Rows() int64 { return b.rows }

// MemBytes returns the builder's estimated retained memory, on the same
// scale as Partial.MemBytes.
func (b *PartialBuilder) MemBytes() int64 { return b.bytes }

// Finish collapses the accumulated partition into a Partial and resets the
// builder for the next partition. Finishing an empty builder yields a valid
// zero-row Partial.
func (b *PartialBuilder) Finish() *Partial {
	p := &Partial{cols: b.cols, rows: b.rows}
	p.freqs, p.nulls = collectFreqs(b.leading)
	if b.cols > 1 {
		p.prefixes = b.prefixes
	}
	// collectFreqs copies every datum it keeps, so the buffer is free for
	// the next partition. Regrowing it by append doubling after every cut
	// would cost a fifth of a tuning round's allocation volume.
	b.leading = b.leading[:0]
	b.rows = 0
	b.bytes = 0
	if b.cols > 1 {
		b.prefixes = make([]map[string]struct{}, b.cols-1)
		for i := range b.prefixes {
			b.prefixes[i] = make(map[string]struct{})
		}
	}
	return p
}

// MemBytes estimates the partial's retained memory: the collapsed frequency
// list plus the distinct-prefix sets. It is the unit the statistics
// manager's build-memory budget counts — completed partials whose combined
// estimate exceeds the budget spill to disk.
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
