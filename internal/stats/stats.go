// Package stats implements the statistics manager: creation, update and
// deletion of single- and multi-column statistics over a storage.Database,
// the drop-list of §5, the aging mechanism of §6, and the SQL Server 7.0
// auto-update/auto-drop maintenance policy the paper extends.
//
// Concurrency model: a Manager is safe for concurrent use. The catalog is
// sharded by table — a statistic lives in the shard its table name hashes
// to — so refreshes and creates on different tables never contend on one
// mutex. Every observable mutation (Create/Drop/Refresh/drop-list
// changes/Load) bumps a global, monotonically increasing epoch that
// callers — notably the optimizer's plan cache — use to detect staleness.
// The epoch is advanced inside the owning shard's critical section, before
// the shard lock is released, so a reader that observes the mutated catalog
// state also observes the new epoch. *Statistic values handed out by the
// manager are treated as immutable snapshots: Refresh replaces the map
// entry with a fresh Statistic instead of mutating the published one in
// place, so a reader that obtained a pointer before the refresh keeps a
// consistent (if stale) view without data races.
//
// Lock ordering: shard mutexes are acquired before cfgMu (configuration)
// and accMu (accounting); when several shards are locked together (Load,
// DropAll) they are taken in index order. cfgMu is never held while
// acquiring a shard lock.
package stats

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autostats/internal/histogram"
	"autostats/internal/obs"
	"autostats/internal/storage"
)

// ID uniquely names a statistic as "table(col1,col2,...)" in lower case.
// Column order matters: multi-column statistics are asymmetric (§7.1).
type ID string

// MakeID builds the canonical statistic ID.
func MakeID(table string, cols []string) ID {
	lower := make([]string, len(cols))
	for i, c := range cols {
		lower[i] = strings.ToLower(c)
	}
	return ID(strings.ToLower(table) + "(" + strings.Join(lower, ",") + ")")
}

// Table extracts the (lower-case) table name from the canonical ID.
func (id ID) Table() string {
	if i := strings.IndexByte(string(id), '('); i >= 0 {
		return string(id[:i])
	}
	return string(id)
}

// Statistic is one created statistic and its bookkeeping. Once published by
// the manager it must be treated as read-only; the manager replaces the
// whole value on refresh.
type Statistic struct {
	ID      ID
	Table   string
	Columns []string
	// Data is the summary structure; single-column statistics are
	// MultiColumn with one column.
	Data *histogram.MultiColumn

	// BuildCost is the work-unit cost charged when the statistic was built
	// (full-rebuild refreshes charge the same units to the update-side
	// accounting; fold refreshes charge histogram.FoldCostUnits instead).
	BuildCost float64
	// BuildTime is the wall-clock time of the most recent (re)build or fold.
	BuildTime time.Duration
	// CreatedAt / UpdatedAt are logical-clock stamps.
	CreatedAt int64
	UpdatedAt int64
	// UpdateCount counts refreshes since creation (drives the auto-drop
	// policy threshold).
	UpdateCount int
	// InDropList marks the statistic as identified non-essential (§5).
	// Drop-listed statistics remain usable by the optimizer until
	// physically dropped but incur no maintenance cost.
	InDropList bool

	// DeltaSeq is the table delta-log watermark Data reflects: the folding
	// refresh path replays exactly the modifications logged after it.
	DeltaSeq int64
	// FoldedRows counts row deltas folded incrementally into Data since the
	// last full build — the bounded "fold error" that triggers a rebuild
	// once it crosses FoldConfig.MaxFoldFraction of the table.
	FoldedRows int64
}

// IsSingleColumn reports whether the statistic covers exactly one column.
func (s *Statistic) IsSingleColumn() bool { return len(s.Columns) == 1 }

// LeadingColumn returns the first (histogram-bearing) column.
func (s *Statistic) LeadingColumn() string { return s.Columns[0] }

// numShards is the catalog shard count. Statistics are distributed by a
// hash of their table name, so all statistics of one table share a shard
// (RefreshTable stays a single-shard critical section) while different
// tables almost always land on different mutexes.
const numShards = 16

// shard is one slice of the statistics catalog with its own lock.
type shard struct {
	mu    sync.RWMutex
	stats map[ID]*Statistic
	// droppedAt records logical drop times of physically dropped statistics,
	// feeding the aging policy (§6).
	droppedAt map[ID]int64
}

// Manager owns all statistics of one database. It is safe for concurrent
// use; see the package comment for the sharding, locking and epoch
// discipline.
type Manager struct {
	db         *storage.Database
	kind       histogram.Kind
	maxBuckets int

	shards [numShards]shard

	// clock is the logical clock; epoch increases on every observable
	// statistics mutation — equal epochs imply an identical visible
	// statistics set.
	clock atomic.Int64
	epoch atomic.Uint64

	// AgingWindow is the number of logical ticks during which a recently
	// dropped statistic is considered "aged" and should not be re-created
	// for cheap queries. Zero disables aging. Set it before sharing the
	// manager across goroutines.
	AgingWindow int64

	// cfgMu guards the reconfigurable collaborators below. It is never held
	// while acquiring a shard lock.
	cfgMu sync.RWMutex
	// sampling configures sampled statistics construction (see SetSampling).
	sampling SampleConfig
	// feedback, when non-nil, supplies execution-feedback q-error summaries
	// to RunMaintenance (see SetFeedbackProvider).
	feedback FeedbackProvider
	// failpoint, when non-nil, can veto mutating operations (see
	// SetFailpoint).
	failpoint Failpoint
	// fold configures incremental (folding) maintenance (see
	// SetIncrementalMaintenance).
	fold FoldConfig
	// stream holds the block-pipeline parameters of full builds (see
	// SetStreamingBuild).
	stream StreamConfig
	// met caches the manager's observability handles; see managerMetrics.
	met managerMetrics

	// accMu guards the cumulative accounting fields below. It is the
	// innermost lock: taken only with no other manager lock needed, or
	// inside a shard critical section.
	accMu sync.Mutex
	// Cumulative accounting, reported by the experiment harness. Mutated
	// only under accMu; read them after concurrent phases have joined, or
	// via Accounting for a consistent snapshot.
	TotalBuildCost  float64
	TotalBuildTime  time.Duration
	TotalUpdateCost float64
	BuildCount      int
	UpdateOpCount   int
}

// managerMetrics caches the manager's metric handles so hot paths hit the
// atomics directly instead of re-looking names up in the registry. Counters
// mirror the cumulative accounting fields one-for-one (stats.builds =
// BuildCount, stats.build.cost_units = TotalBuildCost, ...) so experiment
// tables derived from either source reconcile.
type managerMetrics struct {
	reg           *obs.Registry
	builds        *obs.Counter
	resurrections *obs.Counter
	drops         *obs.Counter
	refreshes     *obs.Counter
	droplistAdds  *obs.Counter
	droplistRems  *obs.Counter
	buildUnits    *obs.FloatCounter
	updateUnits   *obs.FloatCounter
	statCount     *obs.Gauge
	epoch         *obs.Gauge
	shardCount    *obs.Gauge
	buildLatency  *obs.Timing

	// Build-path instrumentation: fullScans counts statistic (re)builds —
	// every one scans the table, so its standing still is the evidence that
	// incremental maintenance worked; partialsMerged counts the partials
	// merged by builds that cut more than one partition.
	fullScans      *obs.Counter
	partialsMerged *obs.Counter
	// Fold-path instrumentation: folds counts refreshes served by folding
	// row deltas, foldRebuilds counts fold attempts that fell back to a
	// full rebuild, foldedRows counts the deltas folded.
	folds        *obs.Counter
	foldRebuilds *obs.Counter
	foldedRows   *obs.Counter
	// Scan instrumentation: buildBlocks counts the blocks builds consumed,
	// buildSpills/spillBytes the partials (and bytes) that overflowed the
	// build-memory budget to temp files. buildMemPeak is the estimated peak
	// build memory (builder + retained partials) of the most recent build —
	// the gauge the flat-memory regression test gates on.
	buildBlocks  *obs.Counter
	buildSpills  *obs.Counter
	spillBytes   *obs.Counter
	buildMemPeak *obs.Gauge
}

func newManagerMetrics(reg *obs.Registry) managerMetrics {
	return managerMetrics{
		reg:            reg,
		builds:         reg.Counter("stats.builds"),
		resurrections:  reg.Counter("stats.resurrections"),
		drops:          reg.Counter("stats.drops"),
		refreshes:      reg.Counter("stats.refreshes"),
		droplistAdds:   reg.Counter("stats.droplist.adds"),
		droplistRems:   reg.Counter("stats.droplist.removes"),
		buildUnits:     reg.FloatCounter("stats.build.cost_units"),
		updateUnits:    reg.FloatCounter("stats.update.cost_units"),
		statCount:      reg.Gauge("stats.count"),
		epoch:          reg.Gauge("stats.epoch"),
		shardCount:     reg.Gauge("stats.shards"),
		buildLatency:   reg.Timing("stats.build.latency"),
		fullScans:      reg.Counter("stats.build.full_scans"),
		partialsMerged: reg.Counter("stats.build.partials_merged"),
		folds:          reg.Counter("stats.fold.applied"),
		foldRebuilds:   reg.Counter("stats.fold.rebuilds"),
		foldedRows:     reg.Counter("stats.fold.rows"),
		buildBlocks:    reg.Counter("stats.build.blocks"),
		buildSpills:    reg.Counter("stats.build.spills"),
		spillBytes:     reg.Counter("stats.build.spill_bytes"),
		buildMemPeak:   reg.Gauge("stats.build.mem_peak_bytes"),
	}
}

// NewManager creates a statistics manager over db using the given histogram
// kind and bucket budget (<=0 means histogram.DefaultBuckets).
func NewManager(db *storage.Database, kind histogram.Kind, maxBuckets int) *Manager {
	m := &Manager{
		db:         db,
		kind:       kind,
		maxBuckets: maxBuckets,
		stream:     StreamConfig{PartitionRows: defaultPartitionRows},
		met:        newManagerMetrics(obs.Default),
	}
	for i := range m.shards {
		m.shards[i].stats = make(map[ID]*Statistic)
		m.shards[i].droppedAt = make(map[ID]int64)
	}
	m.met.shardCount.Set(numShards)
	return m
}

// Database returns the managed database.
func (m *Manager) Database() *storage.Database { return m.db }

// shardFor returns the shard owning statistics of the (lower-case) table.
func (m *Manager) shardFor(table string) *shard {
	// FNV-1a over the table name.
	h := uint64(14695981039346656037)
	for i := 0; i < len(table); i++ {
		h ^= uint64(table[i])
		h *= 1099511628211
	}
	return &m.shards[h%numShards]
}

// metrics returns the current observability handles. Hot paths snapshot
// them once per operation instead of re-reading cfgMu per counter.
func (m *Manager) metrics() managerMetrics {
	m.cfgMu.RLock()
	defer m.cfgMu.RUnlock()
	return m.met
}

// SetObsRegistry redirects the manager's metrics to reg (obs.Default at
// construction). Call it before sharing the manager across goroutines.
func (m *Manager) SetObsRegistry(reg *obs.Registry) {
	n := int64(len(m.All()))
	met := newManagerMetrics(reg)
	met.statCount.Set(n)
	met.epoch.Set(int64(m.epoch.Load()))
	met.shardCount.Set(numShards)
	m.cfgMu.Lock()
	defer m.cfgMu.Unlock()
	m.met = met
}

// ObsRegistry returns the registry the manager's metrics go to.
func (m *Manager) ObsRegistry() *obs.Registry {
	m.cfgMu.RLock()
	defer m.cfgMu.RUnlock()
	return m.met.reg
}

// bumpEpoch advances the statistics epoch. Callers must hold the mutated
// shard's write lock (or all shard locks) so the new epoch is published
// before the mutation becomes visible to other goroutines. The epoch and
// stat-count gauges are maintained with deltas — gauge Set from concurrent
// shards could publish a stale absolute value.
func (m *Manager) bumpEpoch(met managerMetrics) {
	m.epoch.Add(1)
	met.epoch.Add(1)
}

// Epoch returns the statistics epoch: a counter bumped by every observable
// mutation (Create, Drop, Refresh, drop-list changes, Load, DropAll). Two
// optimizations at the same epoch see the same statistics.
func (m *Manager) Epoch() uint64 { return m.epoch.Load() }

// Tick advances the logical clock (called once per processed statement by
// policy drivers) and returns the new time.
func (m *Manager) Tick() int64 { return m.clock.Add(1) }

// Get returns the statistic with the given ID, or nil.
func (m *Manager) Get(id ID) *Statistic {
	sh := m.shardFor(id.Table())
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.stats[id]
}

// Has reports whether the statistic exists (whether or not drop-listed).
func (m *Manager) Has(id ID) bool { return m.Get(id) != nil }

// IsDropListed reports whether the statistic exists and is drop-listed.
func (m *Manager) IsDropListed(id ID) bool {
	sh := m.shardFor(id.Table())
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	s := sh.stats[id]
	return s != nil && s.InDropList
}

// collect gathers the statistics matching filter (nil means all) across
// every shard, in deterministic ID order. Shards are visited one at a time;
// the result is a consistent per-shard snapshot, which is all the previous
// single-mutex implementation guaranteed to concurrent readers as well.
func (m *Manager) collect(filter func(*Statistic) bool) []*Statistic {
	var out []*Statistic
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for _, s := range sh.stats {
			if filter == nil || filter(s) {
				out = append(out, s)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// All returns all existing statistics in deterministic ID order.
func (m *Manager) All() []*Statistic { return m.collect(nil) }

// Maintained returns the statistics not in the drop-list — the set whose
// update cost the system pays (§5, Table 1 metric).
func (m *Manager) Maintained() []*Statistic {
	return m.collect(func(s *Statistic) bool { return !s.InDropList })
}

// DropList returns the drop-listed statistics in deterministic order.
func (m *Manager) DropList() []*Statistic {
	return m.collect(func(s *Statistic) bool { return s.InDropList })
}

// DropListIDs returns the drop-listed statistic IDs in ID order — a cheap
// snapshot for workload drivers that report drop-list deltas.
func (m *Manager) DropListIDs() []ID {
	dropped := m.DropList()
	out := make([]ID, len(dropped))
	for i, s := range dropped {
		out[i] = s.ID
	}
	return out
}

// Create builds the statistic on table(cols) and returns it. If it already
// exists, the existing statistic is returned; a drop-listed statistic is
// resurrected (removed from the drop-list) without rebuilding, per §5:
// "instead of re-creating the statistic s, it can simply be removed from the
// drop-list and made accessible to the optimizer".
//
// Concurrent Create calls for the same ID are serialized; the second call
// returns the statistic the first one built.
func (m *Manager) Create(table string, cols []string) (*Statistic, error) {
	s, _, err := m.Ensure(table, cols)
	return s, err
}

// Ensure is Create that also reports whether this call physically built the
// statistic — false when it already existed or was merely resurrected from
// the drop-list. Callers that attribute build cost (MNSA's units-consumed
// accounting) need the distinction; Create callers don't.
func (m *Manager) Ensure(table string, cols []string) (*Statistic, bool, error) {
	return m.EnsureCtx(context.Background(), table, cols)
}

// EnsureCtx is Ensure honoring cancellation and deadlines: the build is
// abandoned — with all published state (snapshots, epoch, accounting)
// untouched — when ctx expires before or between the build steps. A
// statistic that already exists is returned regardless of ctx state; only
// physical building is cancellable work.
func (m *Manager) EnsureCtx(ctx context.Context, table string, cols []string) (*Statistic, bool, error) {
	id := MakeID(table, cols)
	met := m.metrics()
	sh := m.shardFor(id.Table())
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s := sh.stats[id]; s != nil {
		if s.InDropList {
			s.InDropList = false
			met.resurrections.Inc()
			met.droplistRems.Inc()
			m.bumpEpoch(met)
		}
		return s, false, nil
	}
	if fp := m.failpointFn(); fp != nil {
		if err := fp(ctx, "create", id); err != nil {
			return nil, false, fmt.Errorf("stats: create %s vetoed: %w", id, err)
		}
	}
	s, err := m.build(ctx, table, cols, met)
	if err != nil {
		return nil, false, err
	}
	// Creation accounting is charged here, NOT in build: refreshes reuse
	// the build path but must charge only the update-side counters.
	m.accMu.Lock()
	m.TotalBuildCost += s.BuildCost
	m.TotalBuildTime += s.BuildTime
	m.BuildCount++
	m.accMu.Unlock()
	met.builds.Inc()
	met.buildUnits.Add(s.BuildCost)
	met.buildLatency.Observe(s.BuildTime)
	sh.stats[id] = s
	met.statCount.Add(1)
	m.bumpEpoch(met)
	return s, true, nil
}

func lowerAll(cols []string) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = strings.ToLower(c)
	}
	return out
}

// Drop physically removes a statistic and records the drop time for aging.
func (m *Manager) Drop(id ID) bool {
	met := m.metrics()
	sh := m.shardFor(id.Table())
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return m.dropShardLocked(sh, id, met)
}

// dropShardLocked removes id from sh; the caller holds sh.mu.
func (m *Manager) dropShardLocked(sh *shard, id ID, met managerMetrics) bool {
	if _, ok := sh.stats[id]; !ok {
		return false
	}
	delete(sh.stats, id)
	sh.droppedAt[id] = m.clock.Add(1)
	met.drops.Inc()
	met.statCount.Add(-1)
	m.bumpEpoch(met)
	return true
}

// AddToDropList marks a statistic non-essential. Returns false if unknown.
func (m *Manager) AddToDropList(id ID) bool {
	met := m.metrics()
	sh := m.shardFor(id.Table())
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := sh.stats[id]
	if s == nil {
		return false
	}
	if !s.InDropList {
		s.InDropList = true
		met.droplistAdds.Inc()
		m.bumpEpoch(met)
	}
	return true
}

// RemoveFromDropList resurrects a drop-listed statistic.
func (m *Manager) RemoveFromDropList(id ID) bool {
	met := m.metrics()
	sh := m.shardFor(id.Table())
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := sh.stats[id]
	if s == nil {
		return false
	}
	if s.InDropList {
		s.InDropList = false
		met.droplistRems.Inc()
		m.bumpEpoch(met)
	}
	return true
}

// PurgeDropList physically drops every drop-listed statistic and returns
// how many were dropped (a policy action, §6).
func (m *Manager) PurgeDropList() int {
	met := m.metrics()
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		var ids []ID
		for id, s := range sh.stats {
			if s.InDropList {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			if m.dropShardLocked(sh, id, met) {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// RecentlyDropped reports whether the statistic was physically dropped
// within the aging window, in which case re-creation should be dampened for
// inexpensive queries (§6).
func (m *Manager) RecentlyDropped(id ID) bool {
	if m.AgingWindow <= 0 {
		return false
	}
	sh := m.shardFor(id.Table())
	sh.mu.RLock()
	at, ok := sh.droppedAt[id]
	sh.mu.RUnlock()
	return ok && m.clock.Load()-at < m.AgingWindow
}

// Refresh rebuilds an existing statistic from current data, charging its
// update cost (and only its update cost — creation accounting is untouched).
// Drop-listed statistics are skipped (they are not maintained). The map
// entry is replaced with a fresh Statistic; previously handed-out pointers
// keep their pre-refresh snapshot. When incremental maintenance is enabled
// and the table's logged row deltas are small enough, the refresh folds the
// deltas into the existing histogram instead of rescanning the table.
func (m *Manager) Refresh(id ID) error {
	return m.RefreshCtx(context.Background(), id)
}

// RefreshCtx is Refresh honoring cancellation and deadlines; see EnsureCtx
// for the abandonment guarantees.
func (m *Manager) RefreshCtx(ctx context.Context, id ID) error {
	met := m.metrics()
	sh := m.shardFor(id.Table())
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, err := m.refreshShardLocked(ctx, sh, id, met)
	return err
}

// refreshShardLocked refreshes one statistic and returns the update cost
// this call charged (0 when the statistic is drop-listed and skipped).
// Callers must hold sh.mu. Returning the cost lets maintenance passes
// attribute exactly their own work instead of diffing the global counters,
// which would fold in concurrent refreshes.
func (m *Manager) refreshShardLocked(ctx context.Context, sh *shard, id ID, met managerMetrics) (float64, error) {
	s := sh.stats[id]
	if s == nil {
		return 0, fmt.Errorf("stats: unknown statistic %s", id)
	}
	if s.InDropList {
		return 0, nil
	}
	if fp := m.failpointFn(); fp != nil {
		if err := fp(ctx, "refresh", id); err != nil {
			return 0, fmt.Errorf("stats: refresh %s vetoed: %w", id, err)
		}
	}
	fresh, cost, err := m.rebuildOrFold(ctx, s, met)
	if err != nil {
		return 0, fmt.Errorf("stats: refresh %s: %w", id, err)
	}
	sh.stats[id] = fresh
	m.accMu.Lock()
	m.TotalUpdateCost += cost
	m.UpdateOpCount++
	m.accMu.Unlock()
	met.refreshes.Inc()
	met.updateUnits.Add(cost)
	m.bumpEpoch(met)
	return cost, nil
}

// refreshStatCost refreshes a single statistic and returns the update cost
// this call charged — the per-statistic sibling of refreshTableCost, used by
// the feedback-triggered maintenance path. The table's modification counter
// is left untouched: other statistics on the table remain governed by it.
func (m *Manager) refreshStatCost(ctx context.Context, id ID) (float64, error) {
	met := m.metrics()
	sh := m.shardFor(id.Table())
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return m.refreshShardLocked(ctx, sh, id, met)
}

// RefreshTable refreshes every maintained statistic on the table and resets
// its modification counter. Returns the number refreshed.
func (m *Manager) RefreshTable(table string) (int, error) {
	n, _, err := m.refreshTableCost(context.Background(), table)
	return n, err
}

// refreshTableCost is RefreshTable plus the update cost charged by this call
// alone, so a maintenance pass can report its own cost even while other
// goroutines refresh concurrently. All statistics of one table live in one
// shard, so the whole pass is a single-shard critical section. Cancellation
// is checked between the per-statistic rebuilds.
func (m *Manager) refreshTableCost(ctx context.Context, table string) (int, float64, error) {
	table = strings.ToLower(table)
	met := m.metrics()
	sh := m.shardFor(table)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var ids []ID
	for id, s := range sh.stats {
		if s.Table == table && !s.InDropList {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	n := 0
	var cost float64
	for _, id := range ids {
		c, err := m.refreshShardLocked(ctx, sh, id, met)
		if err != nil {
			return n, cost, err
		}
		cost += c
		n++
	}
	if td, err := m.db.Table(table); err == nil {
		td.ResetModCounter()
	}
	return n, cost, nil
}

// MaintenanceCostUnits returns the work units one full refresh cycle of all
// maintained statistics would charge — the "cost of updating the set of
// statistics left behind" metric of Table 1.
func (m *Manager) MaintenanceCostUnits() float64 {
	var c float64
	for _, s := range m.Maintained() {
		td, err := m.db.Table(s.Table)
		if err != nil {
			continue
		}
		c += histogram.BuildCostUnits(int64(td.RowCount()), len(s.Columns))
	}
	return c
}

// StatsOnTable returns all existing statistics on a table.
func (m *Manager) StatsOnTable(table string) []*Statistic {
	table = strings.ToLower(table)
	sh := m.shardFor(table)
	sh.mu.RLock()
	var out []*Statistic
	for _, s := range sh.stats {
		if s.Table == table {
			out = append(out, s)
		}
	}
	sh.mu.RUnlock()
	slices.SortFunc(out, func(a, b *Statistic) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// StatsForColumn returns all statistics whose leading (histogram-bearing)
// column is table.column — the statistics usable to estimate a predicate on
// that column. Single-column statistics sort first so the estimator prefers
// the most precise structure.
func (m *Manager) StatsForColumn(table, column string) []*Statistic {
	table, column = strings.ToLower(table), strings.ToLower(column)
	sh := m.shardFor(table)
	sh.mu.RLock()
	var out []*Statistic
	for _, s := range sh.stats {
		if s.Table == table && s.LeadingColumn() == column {
			out = append(out, s)
		}
	}
	sh.mu.RUnlock()
	slices.SortFunc(out, func(a, b *Statistic) int {
		if c := cmp.Compare(len(a.Columns), len(b.Columns)); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return out
}

// Accounting is a consistent snapshot of the cumulative cost counters.
type Accounting struct {
	TotalBuildCost  float64
	TotalBuildTime  time.Duration
	TotalUpdateCost float64
	BuildCount      int
	UpdateOpCount   int
}

// Snapshot returns the accounting counters under the accounting lock, safe
// to call while other goroutines mutate statistics.
func (m *Manager) Snapshot() Accounting {
	m.accMu.Lock()
	defer m.accMu.Unlock()
	return Accounting{
		TotalBuildCost:  m.TotalBuildCost,
		TotalBuildTime:  m.TotalBuildTime,
		TotalUpdateCost: m.TotalUpdateCost,
		BuildCount:      m.BuildCount,
		UpdateOpCount:   m.UpdateOpCount,
	}
}

// ResetAccounting zeroes the cumulative cost counters (between experiment
// phases).
func (m *Manager) ResetAccounting() {
	m.accMu.Lock()
	defer m.accMu.Unlock()
	m.TotalBuildCost = 0
	m.TotalBuildTime = 0
	m.TotalUpdateCost = 0
	m.BuildCount = 0
	m.UpdateOpCount = 0
}

// lockAll write-locks every shard in index order; unlockAll releases them
// in reverse. Used by the wholesale operations (Load, DropAll) that must
// mutate the catalog atomically with respect to readers.
func (m *Manager) lockAll() {
	for i := range m.shards {
		m.shards[i].mu.Lock()
	}
}

func (m *Manager) unlockAll() {
	for i := len(m.shards) - 1; i >= 0; i-- {
		m.shards[i].mu.Unlock()
	}
}

// DropAll removes every statistic without recording aging drops (used to
// reset experiments).
func (m *Manager) DropAll() {
	met := m.metrics()
	m.lockAll()
	defer m.unlockAll()
	var old int64
	for i := range m.shards {
		old += int64(len(m.shards[i].stats))
		m.shards[i].stats = make(map[ID]*Statistic)
		m.shards[i].droppedAt = make(map[ID]int64)
	}
	met.statCount.Add(-old)
	m.bumpEpoch(met)
}
