package stats

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"autostats/internal/histogram"
)

// Statistic construction. There is one build — build, below: a
// snapshot-guarded block scan, mergeable partials cut every
// defaultPartitionRows rows and one exact merge — bitwise-identical to the
// single-pass histogram.BuildMulti reference TestBuildIdentity compares it
// against, at any block size or partition cut. Creation and refresh both call
// it on current data. It runs entirely in memory.

// defaultPartitionRows is the partition cut. It is a measured constant, not
// a tuning knob, because it cannot change a result: on the tune_offline
// benchmark workload (3 alternating pairs, 2 vCPUs) a single never-cut
// partition measured 131–143 ms and 138 000 KB allocated per tuning round
// against 82–101 ms and 35 600 KB with 8192-row cuts (a table-sized run
// buffer, grown by doubling in every build, loses to a reused
// partition-sized one plus merges of short sorted frequency lists).
// The package's tests vary the cut only to prove cut-independence.
const defaultPartitionRows = 8192

// blockPipeline holds the block pipeline's two parameters. Neither can
// change a result. The zero value is production's: the storage default
// block size and defaultPartitionRows. Only this package's tests set other
// values, before the manager is shared, so build reads them without cfgMu.
type blockPipeline struct {
	// blockSize is the rows per scan block; 0 means the storage default.
	blockSize int
	// partitionRows caps the rows accumulated into one partial before it
	// is cut; 0 means defaultPartitionRows.
	partitionRows int
}

// build constructs a fresh Statistic from current data — the only code that
// turns table rows into a statistic. The table is scanned block by block
// under the iterator's snapshot guard, each block is added to a
// histogram.PartialBuilder, a partition is cut every partitionRows rows, and
// the retained partials are merged once at the end. It bumps the logical
// clock but charges no accounting; EnsureCtx and refresh charge the build-
// and update-side counters respectively. Cancellation and the failpoint are
// checked between blocks; on every exit path the iterator is closed, so an
// aborted build publishes nothing and leaks no snapshot guard. Callers must
// hold m.mu.
//
// While the iterator is open the table's read lock is held by this
// goroutine, under m.mu: nothing in the scan loop (including the "block"
// failpoint, which fault tests use to cancel mid-stream) may call back into
// the table or a manager mutator. The iterator is closed before the merge
// pass, keeping the writer-blocking window proportional to the scan alone.
func (m *Manager) build(ctx context.Context, table string, cols []string, met managerMetrics) (_ *Statistic, err error) {
	id := MakeID(table, cols)
	defer func() {
		if err != nil {
			err = fmt.Errorf("stats: building %s: %w", id, err)
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	td, err := m.db.Table(table)
	if err != nil {
		return nil, err
	}
	m.cfgMu.RLock()
	fp := m.failpoint
	m.cfgMu.RUnlock()
	partitionRows := int64(cmp.Or(m.pipeline.partitionRows, defaultPartitionRows))

	start := time.Now()
	builder, err := histogram.NewPartialBuilder(cols)
	if err != nil {
		return nil, err
	}
	it, err := td.OpenBlockIter(cols, m.pipeline.blockSize)
	if err != nil {
		return nil, err
	}
	defer it.Close()

	var (
		parts      []*histogram.Partial
		partsBytes int64 // estimated bytes of the retained partials
		peakBytes  int64 // high-water mark of builder + retained partials
		blocks     int64
		rows       int64
	)
	cut := func() {
		p := builder.Finish()
		partsBytes += p.MemBytes()
		parts = append(parts, p)
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		block, ok := it.Next()
		if !ok {
			break
		}
		blocks++
		if fp != nil {
			if err := fp(ctx, "block", id); err != nil {
				return nil, err
			}
		}
		rows += int64(len(block))
		if err := builder.AddBlock(block); err != nil {
			return nil, err
		}
		peakBytes = max(peakBytes, partsBytes+builder.MemBytes())
		if builder.Rows() >= partitionRows {
			cut()
		}
	}
	if builder.Rows() > 0 || len(parts) == 0 {
		cut()
	}
	// Release the snapshot guard before the merge pass, so the merge does
	// not block writers.
	it.Close()

	mc, err := histogram.MergePartials(m.kind, cols, parts, m.maxBuckets)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	met.fullScans.Inc()
	met.buildBlocks.Add(blocks)
	if len(parts) > 1 {
		met.partialsMerged.Add(int64(len(parts)))
	}
	met.buildMemPeak.SetMax(peakBytes)
	now := m.clock.Add(1)
	return &Statistic{
		ID:        id,
		Table:     id.Table(),
		Columns:   cols,
		Data:      mc,
		BuildCost: histogram.BuildCostUnits(rows, len(cols)),
		BuildTime: elapsed,
		CreatedAt: now,
		UpdatedAt: now,
	}, nil
}
