package stats

import (
	"context"
	"fmt"
	"time"

	"autostats/internal/catalog"
	"autostats/internal/histogram"
)

// Statistic construction and incremental maintenance. There is one full
// build — build, below: a snapshot-guarded block scan, mergeable partials cut
// every PartitionRows rows (spilled past the memory budget) and one exact
// merge — bitwise-identical to the single-pass histogram.BuildMulti
// reference the tests and oracles compare it against. Refreshes can avoid
// the scan entirely by folding logged row deltas into the existing
// histogram, falling back to a full rebuild once the folded fraction crosses
// FoldConfig.MaxFoldFraction.

// DefaultMaxFoldFraction bounds the fold error when FoldConfig does not:
// once folded row deltas exceed this fraction of the table, the next
// refresh rebuilds from a full scan.
const DefaultMaxFoldFraction = 0.1

// FoldConfig controls incremental (folding) statistics maintenance.
type FoldConfig struct {
	// Enabled turns folding refreshes on and enables the per-table delta
	// logs that feed them.
	Enabled bool
	// MaxFoldFraction is the folded-rows-to-table-rows ratio above which a
	// refresh rebuilds from scratch instead of folding; <= 0 means
	// DefaultMaxFoldFraction. Bucket boundaries, distinct counts and
	// densities go stale under folding — this bounds that drift.
	MaxFoldFraction float64
	// DeltaLogCap is the per-table delta-log capacity in records; <= 0
	// means storage.DefaultDeltaLogCap. A log overflow invalidates
	// outstanding watermarks, forcing the next refresh to rebuild.
	DeltaLogCap int
}

// SetIncrementalMaintenance configures folding refreshes and switches the
// per-table delta logs on or off accordingly. Enabling starts the logs
// empty: modifications made before this call were never recorded, so the
// first refresh of each statistic still rebuilds; subsequent refreshes fold.
func (m *Manager) SetIncrementalMaintenance(cfg FoldConfig) error {
	if cfg.MaxFoldFraction < 0 || cfg.MaxFoldFraction > 1 {
		return fmt.Errorf("stats: fold fraction %v out of [0,1]", cfg.MaxFoldFraction)
	}
	m.cfgMu.Lock()
	m.fold = cfg
	m.cfgMu.Unlock()
	for name := range m.db.Schema.Tables {
		td, err := m.db.Table(name)
		if err != nil {
			continue
		}
		if cfg.Enabled {
			td.EnableDeltaLog(cfg.DeltaLogCap)
		} else {
			td.DisableDeltaLog()
		}
	}
	return nil
}

// IncrementalMaintenance returns the active fold configuration.
func (m *Manager) IncrementalMaintenance() FoldConfig {
	m.cfgMu.RLock()
	defer m.cfgMu.RUnlock()
	return m.fold
}

// build constructs a fresh Statistic from current data — the only code that
// turns table rows into a statistic. The table is scanned block by block
// under the iterator's snapshot guard, each block is folded into a
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
// Its delta-log watermark is exactly the table state the histogram
// summarizes, so a later folding refresh replays precisely the modifications
// the build did not see.
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
	seq := it.Seq()

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
		DeltaSeq:  seq,
	}, nil
}

// rebuildOrFold produces the refreshed replacement for s and the update
// cost to charge: a cheap fold of logged row deltas when eligible, a full
// rebuild otherwise. Callers must hold m.mu.
func (m *Manager) rebuildOrFold(ctx context.Context, s *Statistic, met managerMetrics) (*Statistic, float64, error) {
	if folded, cost, ok := m.tryFold(ctx, s, met); ok {
		return folded, cost, nil
	}
	fresh, err := m.build(ctx, s.Table, s.Columns, met)
	if err != nil {
		return nil, 0, err
	}
	fresh.CreatedAt = s.CreatedAt
	fresh.UpdateCount = s.UpdateCount + 1
	fresh.InDropList = s.InDropList
	return fresh, fresh.BuildCost, nil
}

// tryFold refreshes s by folding the table's logged row deltas into the
// existing histogram, avoiding the table scan entirely. It declines (ok
// false) when folding is disabled, the delta window is unavailable (log
// disabled, trimmed, or overflowed), or the accumulated fold error would
// cross the configured bound — the caller then rebuilds.
func (m *Manager) tryFold(ctx context.Context, s *Statistic, met managerMetrics) (*Statistic, float64, bool) {
	cfg := m.IncrementalMaintenance()
	if !cfg.Enabled || s.Data == nil || ctx.Err() != nil {
		return nil, 0, false
	}
	td, err := m.db.Table(s.Table)
	if err != nil {
		return nil, 0, false
	}
	recs, next, ok := td.DeltaWindow(s.DeltaSeq)
	if !ok {
		met.foldRebuilds.Inc()
		return nil, 0, false
	}
	frac := cfg.MaxFoldFraction
	if frac <= 0 {
		frac = DefaultMaxFoldFraction
	}
	tableRows := td.RowCount()
	if tableRows < 1 {
		tableRows = 1
	}
	pending := s.FoldedRows + int64(len(recs))
	if float64(pending) > frac*float64(tableRows) {
		met.foldRebuilds.Inc()
		return nil, 0, false
	}
	ci := td.Schema.ColumnIndex(s.LeadingColumn())
	if ci < 0 {
		return nil, 0, false
	}
	start := time.Now()
	var ins, del []catalog.Datum
	for _, r := range recs {
		if r.Del {
			del = append(del, r.Row[ci])
		} else {
			ins = append(ins, r.Row[ci])
		}
	}
	folded := *s
	folded.Data = histogram.FoldMulti(s.Data, ins, del)
	folded.BuildTime = time.Since(start)
	folded.UpdatedAt = m.clock.Add(1)
	folded.UpdateCount = s.UpdateCount + 1
	folded.FoldedRows = pending
	folded.DeltaSeq = next
	cost := histogram.FoldCostUnits(int64(len(recs)))
	met.folds.Inc()
	met.foldedRows.Add(int64(len(recs)))
	return &folded, cost, true
}
