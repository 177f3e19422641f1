package stats

import (
	"context"
	"fmt"
	"time"

	"autostats/internal/histogram"
)

// Statistic construction. There is one build — build, below: a
// snapshot-guarded block scan, mergeable partials cut every PartitionRows rows
// (spilled past the memory budget) and one exact merge — bitwise-identical to
// the single-pass histogram.BuildMulti reference the tests and oracles compare
// it against. Creation and refresh both call it on current data.

// build constructs a fresh Statistic from current data — the only code that
// turns table rows into a statistic. The table is scanned block by block
// under the iterator's snapshot guard, each block is added to a
// histogram.PartialBuilder, a partition is cut at PartitionRows rows or early
// when the memory budget fills, cut partials past the budget spill to temp
// files, and everything is merged once at the end. It bumps the logical
// clock but charges no accounting; EnsureCtx and refresh charge the build-
// and update-side counters respectively. Cancellation and the failpoint are
// checked between blocks; on every exit path the iterator is closed and
// spill files are removed, so an aborted build publishes nothing and leaks
// neither a snapshot guard nor a temp file. Callers must hold m.mu.
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
	cfg, fp := m.stream, m.failpoint
	m.cfgMu.RUnlock()

	start := time.Now()
	builder, err := histogram.NewPartialBuilder(cols)
	if err != nil {
		return nil, err
	}
	ss := &spillSet{dir: cfg.SpillDir}
	defer ss.cleanup()
	it, err := td.OpenBlockIter(cols, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	defer it.Close()

	var (
		slots      []partialSlot
		inMemBytes int64 // estimated bytes of retained (non-spilled) partials
		peakBytes  int64 // high-water mark of builder + retained partials
		blocks     int64
		spills     int64
		spillBytes int64
		rows       int64
	)
	cut := func() error {
		p := builder.Finish()
		if cfg.MemBudgetBytes > 0 && inMemBytes+p.MemBytes() > cfg.MemBudgetBytes {
			path, n, err := ss.write(ctx, fp, id, p)
			if err != nil {
				return err
			}
			spills++
			spillBytes += n
			slots = append(slots, partialSlot{path: path})
			return nil
		}
		inMemBytes += p.MemBytes()
		slots = append(slots, partialSlot{p: p})
		return nil
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
		if cur := inMemBytes + builder.MemBytes(); cur > peakBytes {
			peakBytes = cur
		}
		// Cut the partition at the row cap, or early when the budget fills —
		// partition boundaries are arbitrary, the merge is exact at any cut.
		if builder.Rows() >= int64(cfg.PartitionRows) ||
			(cfg.MemBudgetBytes > 0 && inMemBytes+builder.MemBytes() >= cfg.MemBudgetBytes) {
			if err := cut(); err != nil {
				return nil, err
			}
		}
	}
	if builder.Rows() > 0 || len(slots) == 0 {
		if err := cut(); err != nil {
			return nil, err
		}
	}
	// Release the snapshot guard before the merge pass: spilled partials are
	// reloaded and merged without blocking writers.
	it.Close()

	parts := make([]*histogram.Partial, len(slots))
	for i, slot := range slots {
		if slot.p != nil {
			parts[i] = slot.p
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if parts[i], err = ss.read(ctx, fp, id, slot.path); err != nil {
			return nil, err
		}
	}
	mc, err := histogram.MergePartials(m.kind, cols, parts, m.maxBuckets)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	met.fullScans.Inc()
	met.buildBlocks.Add(blocks)
	if spills > 0 {
		met.buildSpills.Add(spills)
		met.spillBytes.Add(spillBytes)
	}
	if len(parts) > 1 {
		met.partialsMerged.Add(int64(len(parts)))
	}
	met.buildMemPeak.Set(peakBytes)
	now := m.clock.Add(1)
	return &Statistic{
		ID:        id,
		Table:     id.Table(),
		Columns:   lowerAll(cols),
		Data:      mc,
		BuildCost: histogram.BuildCostUnits(rows, len(cols)),
		BuildTime: elapsed,
		CreatedAt: now,
		UpdatedAt: now,
	}, nil
}
