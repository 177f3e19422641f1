package stats

import (
	"context"
	"fmt"
	"os"

	"autostats/internal/histogram"
)

// Configuration and spill files of the block pipeline in build.go. The
// scan is cut into partitions of PartitionRows rows (earlier when the
// build-memory budget fills), and completed partials that no longer fit the
// budget spill to temp files, reloaded only for the final MergePartials
// pass. Because partials merge exactly (see internal/histogram), the result
// is bitwise-identical to the single-pass BuildMulti at any block size,
// partition cut, or spill pattern — the streaming differential oracle sweeps
// all three.

// defaultPartitionRows is the partition cut. It is a measured constant, not
// a tuning knob, because it cannot change a result: on the tune_offline
// benchmark workload a single never-cut partition measured ≈ 1080 ms and
// 1.23e6 KB allocated per tuning round against ≈ 910 ms and 0.81e6 KB with
// 8192-row cuts (one table-sized sort buffer, grown by doubling, loses to a
// reused partition-sized one plus merges of short sorted frequency lists).
// The oracle sweep varies the cut only to prove cut-independence.
const defaultPartitionRows = 8192

// StreamConfig holds the parameters of the block pipeline. Only
// MemBudgetBytes and SpillDir are deployment settings; BlockSize and
// PartitionRows cannot change a result and exist for the tests and oracles
// that prove exactly that.
type StreamConfig struct {
	// BlockSize is the rows per scan block; <= 0 means
	// storage.DefaultBlockSize.
	BlockSize int
	// PartitionRows caps the rows accumulated into one partial before it is
	// cut; <= 0 means the default cut of 8192 rows. Together with the
	// budget this bounds build memory to O(block + partition) regardless of
	// table size.
	PartitionRows int
	// MemBudgetBytes bounds the estimated bytes retained by the build
	// (current partition builder + completed in-memory partials). When the
	// budget fills, the current partition is cut early and completed
	// partials spill to temp files. 0 means unbounded (never spill).
	MemBudgetBytes int64
	// SpillDir is where spill temp files go; "" means os.TempDir().
	SpillDir string
}

// SetStreamingBuild configures the block pipeline for subsequent builds.
func (m *Manager) SetStreamingBuild(cfg StreamConfig) error {
	if cfg.BlockSize < 0 || cfg.PartitionRows < 0 || cfg.MemBudgetBytes < 0 {
		return fmt.Errorf("stats: negative streaming parameter %+v", cfg)
	}
	if cfg.PartitionRows == 0 {
		cfg.PartitionRows = defaultPartitionRows
	}
	m.cfgMu.Lock()
	defer m.cfgMu.Unlock()
	m.stream = cfg
	return nil
}

// partialSlot is one completed partition in build order: either retained in
// memory (p non-nil) or spilled to path.
type partialSlot struct {
	p    *histogram.Partial
	path string
}

// spillSet owns the temp files of one build. Methods are called by a single
// goroutine (the build); cleanup is idempotent and must run on every exit
// path — the leak oracle counts files left behind.
type spillSet struct {
	dir   string
	paths []string
}

// write encodes p into a fresh temp file and returns its path and size. IO
// failures are classified Transient — the build aborts but is retryable; a
// failed file is removed immediately.
func (ss *spillSet) write(ctx context.Context, fp Failpoint, id ID, p *histogram.Partial) (string, int64, error) {
	if fp != nil {
		if err := fp(ctx, "spill-write", id); err != nil {
			return "", 0, Transient(fmt.Errorf("stats: spill write for %s vetoed: %w", id, err))
		}
	}
	f, err := os.CreateTemp(ss.dir, "autostats-spill-*.partial")
	if err != nil {
		return "", 0, Transient(fmt.Errorf("stats: spill create for %s: %w", id, err))
	}
	path := f.Name()
	if err := histogram.EncodePartial(f, p); err != nil {
		f.Close()
		os.Remove(path)
		return "", 0, Transient(fmt.Errorf("stats: spill encode for %s: %w", id, err))
	}
	info, statErr := f.Stat()
	if err := f.Close(); err != nil {
		os.Remove(path)
		return "", 0, Transient(fmt.Errorf("stats: spill close for %s: %w", id, err))
	}
	var size int64
	if statErr == nil {
		size = info.Size()
	}
	ss.paths = append(ss.paths, path)
	return path, size, nil
}

// read reloads one spilled partial for the merge pass.
func (ss *spillSet) read(ctx context.Context, fp Failpoint, id ID, path string) (*histogram.Partial, error) {
	if fp != nil {
		if err := fp(ctx, "spill-read", id); err != nil {
			return nil, Transient(fmt.Errorf("stats: spill read for %s vetoed: %w", id, err))
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, Transient(fmt.Errorf("stats: spill open for %s: %w", id, err))
	}
	defer f.Close()
	p, err := histogram.DecodePartial(f)
	if err != nil {
		return nil, Transient(fmt.Errorf("stats: spill decode for %s: %w", id, err))
	}
	return p, nil
}

// cleanup removes every spill file. Idempotent; errors are ignored (the
// files live in a temp dir and a failed remove cannot corrupt statistics
// state).
func (ss *spillSet) cleanup() {
	for _, p := range ss.paths {
		os.Remove(p)
	}
	ss.paths = nil
}
