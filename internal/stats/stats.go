// Package stats implements the statistics manager: creation, update and
// deletion of single- and multi-column statistics over a storage.Database,
// the drop-list of §5, the aging mechanism of §6, and the SQL Server 7.0
// auto-update/auto-drop maintenance policy the paper extends.
//
// Concurrency model: a Manager is safe for concurrent use. The whole catalog
// — epoch, statistics grouped by table, drop times — is one immutable
// version published through one atomic pointer. Readers (Epoch, Get, All,
// StatsForColumn, ...) load the pointer and take no lock, so they never
// wait on a build. Every mutator (Create/Drop/Refresh/drop-list
// changes/Load) takes the one writer mutex, holds it across the build,
// derives the next version copy-on-write and stores it; the epoch travels in
// the version, so a reader that observes the mutated catalog also observes
// the new epoch — the rule the optimizer's plan cache relies on to detect
// staleness. A published *Statistic is never written again: a refresh
// publishes a fresh Statistic and a drop-list change publishes a shallow
// copy (Data shared), so a reader that obtained a pointer earlier keeps a
// consistent (if stale) view without data races.
//
// cfgMu (configuration) and accMu (accounting) are leaf locks: either may be
// taken under the writer mutex, and nothing is acquired under them.
package stats

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"slices"
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

	// BuildCost is the work-unit cost charged when the statistic was built;
	// a refresh charges the same units to the update-side accounting.
	BuildCost float64
	// BuildTime is the wall-clock time of the most recent (re)build.
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
}

// IsSingleColumn reports whether the statistic covers exactly one column.
func (s *Statistic) IsSingleColumn() bool { return len(s.Columns) == 1 }

// LeadingColumn returns the first (histogram-bearing) column.
func (s *Statistic) LeadingColumn() string { return s.Columns[0] }

// version is one immutable state of the statistics catalog. Nothing
// reachable from a published version is written again; mutators derive a
// successor with withGroup and publish that.
type version struct {
	// epoch increases with every published version — equal epochs imply an
	// identical visible statistics set.
	epoch uint64
	count int
	// byTable groups the statistics by (lower-case) table, each group in ID
	// order. The index is by table because StatsForColumn runs once per
	// predicate column of every optimizer call and must not walk the
	// statistics of the other tables.
	byTable map[string][]*Statistic
	// droppedAt records logical drop times of physically dropped statistics,
	// feeding the aging policy (§6).
	droppedAt map[ID]int64
}

// locate returns the group of id's table and id's index in it — or, when
// absent, the index that keeps the group in ID order.
func (v *version) locate(id ID) ([]*Statistic, int, bool) {
	group := v.byTable[id.Table()]
	i, ok := slices.BinarySearchFunc(group, id, func(s *Statistic, id ID) int {
		return cmp.Compare(s.ID, id)
	})
	return group, i, ok
}

// withGroup returns v's successor in which table's statistics are group: the
// table index is copied, every other group is shared.
func (v *version) withGroup(table string, group []*Statistic) *version {
	next := *v
	next.epoch++
	next.count += len(group) - len(v.byTable[table])
	next.byTable = make(map[string][]*Statistic, len(v.byTable)+1)
	maps.Copy(next.byTable, v.byTable)
	next.byTable[table] = group
	return &next
}

// Manager owns all statistics of one database. It is safe for concurrent
// use; see the package comment for the publication, locking and epoch
// discipline.
type Manager struct {
	db         *storage.Database
	kind       histogram.Kind
	maxBuckets int

	// mu serializes mutators; it is held across a build. cur is the
	// published catalog, stored only under mu and loaded by readers with no
	// lock.
	mu  sync.Mutex
	cur atomic.Pointer[version]

	// clock is the logical clock.
	clock atomic.Int64

	// AgingWindow is the number of logical ticks during which a recently
	// dropped statistic is considered "aged" and should not be re-created
	// for cheap queries. Zero disables aging. Set it before sharing the
	// manager across goroutines.
	AgingWindow int64

	// cfgMu guards the reconfigurable collaborators below. It is a leaf
	// lock.
	cfgMu sync.RWMutex
	// failpoint, when non-nil, can veto mutating operations (see
	// SetFailpoint).
	failpoint Failpoint
	// stream holds the block-pipeline parameters of full builds (see
	// SetStreamingBuild).
	stream StreamConfig
	// met caches the manager's observability handles; see managerMetrics.
	met managerMetrics

	// accMu guards acct, the cumulative accounting the experiment harness
	// reports (read it with Snapshot). It is a leaf lock.
	accMu sync.Mutex
	acct  Accounting
}

// managerMetrics caches the manager's metric handles so hot paths hit the
// atomics directly instead of re-looking names up in the registry. Counters
// mirror the cumulative Accounting one-for-one (stats.builds = BuildCount,
// stats.build.cost_units = TotalBuildCost, ...) so experiment tables derived
// from either source reconcile.
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
	buildLatency  *obs.Timing

	// Build-path instrumentation: fullScans counts statistic (re)builds —
	// every creation and every refresh scans the table once, so it always
	// equals builds + refreshes; partialsMerged counts the partials merged by
	// builds that cut more than one partition.
	fullScans      *obs.Counter
	partialsMerged *obs.Counter
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
		buildLatency:   reg.Timing("stats.build.latency"),
		fullScans:      reg.Counter("stats.build.full_scans"),
		partialsMerged: reg.Counter("stats.build.partials_merged"),
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
	m.cur.Store(&version{})
	return m
}

// Database returns the managed database.
func (m *Manager) Database() *storage.Database { return m.db }

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
	met := newManagerMetrics(reg)
	met.setGauges(m.cur.Load())
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

// publish makes next the visible catalog. Contents and epoch travel in one
// pointer, so no reader can see one without the other. The caller holds m.mu.
func (m *Manager) publish(next *version, met managerMetrics) {
	m.cur.Store(next)
	met.setGauges(next)
}

func (met managerMetrics) setGauges(v *version) {
	met.epoch.Set(int64(v.epoch))
	met.statCount.Set(int64(v.count))
}

// Epoch returns the statistics epoch: a counter bumped by every observable
// mutation (Create, Drop, Refresh, drop-list changes, Load). Two
// optimizations at the same epoch see the same statistics.
func (m *Manager) Epoch() uint64 { return m.cur.Load().epoch }

// Tick advances the logical clock (called once per processed statement by
// policy drivers) and returns the new time.
func (m *Manager) Tick() int64 { return m.clock.Add(1) }

// Get returns the statistic with the given ID, or nil.
func (m *Manager) Get(id ID) *Statistic {
	if group, i, ok := m.cur.Load().locate(id); ok {
		return group[i]
	}
	return nil
}

// Has reports whether the statistic exists (whether or not drop-listed).
func (m *Manager) Has(id ID) bool { return m.Get(id) != nil }

// IsDropListed reports whether the statistic exists and is drop-listed.
func (m *Manager) IsDropListed(id ID) bool {
	s := m.Get(id)
	return s != nil && s.InDropList
}

// collect gathers the statistics of one version matching filter (nil means
// all), in deterministic ID order.
func (m *Manager) collect(filter func(*Statistic) bool) []*Statistic {
	v := m.cur.Load()
	out := make([]*Statistic, 0, v.count)
	for _, group := range v.byTable {
		for _, s := range group {
			if filter == nil || filter(s) {
				out = append(out, s)
			}
		}
	}
	slices.SortFunc(out, func(a, b *Statistic) int { return cmp.Compare(a.ID, b.ID) })
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
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, resurrected := m.setDropListed(id, false, met); s != nil {
		if resurrected {
			met.resurrections.Inc()
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
	m.acct.TotalBuildCost += s.BuildCost
	m.acct.TotalBuildTime += s.BuildTime
	m.acct.BuildCount++
	m.accMu.Unlock()
	met.builds.Inc()
	met.buildUnits.Add(s.BuildCost)
	met.buildLatency.Observe(s.BuildTime)
	v := m.cur.Load()
	group, i, _ := v.locate(id)
	m.publish(v.withGroup(id.Table(), slices.Insert(slices.Clone(group), i, s)), met)
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
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.cur.Load()
	group, i, ok := v.locate(id)
	if !ok {
		return false
	}
	next := v.withGroup(id.Table(), slices.Delete(slices.Clone(group), i, i+1))
	next.droppedAt = make(map[ID]int64, len(v.droppedAt)+1)
	maps.Copy(next.droppedAt, v.droppedAt)
	next.droppedAt[id] = m.clock.Add(1)
	met.drops.Inc()
	m.publish(next, met)
	return true
}

// setDropListed publishes id's statistic with InDropList = listed, as a
// shallow copy (Data shared) — the handed-out value is never written. It
// returns the current statistic (nil when unknown) and whether the flag
// changed. The caller holds m.mu.
func (m *Manager) setDropListed(id ID, listed bool, met managerMetrics) (*Statistic, bool) {
	v := m.cur.Load()
	group, i, ok := v.locate(id)
	if !ok {
		return nil, false
	}
	if group[i].InDropList == listed {
		return group[i], false
	}
	flipped := *group[i]
	flipped.InDropList = listed
	group = slices.Clone(group)
	group[i] = &flipped
	if listed {
		met.droplistAdds.Inc()
	} else {
		met.droplistRems.Inc()
	}
	m.publish(v.withGroup(id.Table(), group), met)
	return &flipped, true
}

// AddToDropList marks a statistic non-essential. Returns false if unknown.
func (m *Manager) AddToDropList(id ID) bool {
	met := m.metrics()
	m.mu.Lock()
	defer m.mu.Unlock()
	s, _ := m.setDropListed(id, true, met)
	return s != nil
}

// RemoveFromDropList resurrects a drop-listed statistic.
func (m *Manager) RemoveFromDropList(id ID) bool {
	met := m.metrics()
	m.mu.Lock()
	defer m.mu.Unlock()
	s, _ := m.setDropListed(id, false, met)
	return s != nil
}

// RecentlyDropped reports whether the statistic was physically dropped
// within the aging window, in which case re-creation should be dampened for
// inexpensive queries (§6).
func (m *Manager) RecentlyDropped(id ID) bool {
	if m.AgingWindow <= 0 {
		return false
	}
	at, ok := m.cur.Load().droppedAt[id]
	return ok && m.clock.Load()-at < m.AgingWindow
}

// Refresh rebuilds an existing statistic from current data, charging its
// update cost (and only its update cost — creation accounting is untouched).
// Drop-listed statistics are skipped (they are not maintained). A fresh
// Statistic is published in its place; previously handed-out pointers keep
// their pre-refresh snapshot. Cancellation and deadlines abandon the rebuild
// as in EnsureCtx. The table's modification counter is left untouched: other
// statistics on the table remain governed by it.
func (m *Manager) Refresh(ctx context.Context, id ID) error {
	met := m.metrics()
	m.mu.Lock()
	defer m.mu.Unlock()
	_, err := m.refresh(ctx, id, met)
	return err
}

// refresh rebuilds one statistic and returns the update cost this call
// charged — 0 when the statistic is drop-listed and skipped — so a
// maintenance pass attributes exactly its own work instead of diffing the
// global counters, which would fold in concurrent refreshes. The caller holds
// m.mu.
func (m *Manager) refresh(ctx context.Context, id ID, met managerMetrics) (float64, error) {
	v := m.cur.Load()
	group, i, ok := v.locate(id)
	if !ok {
		return 0, fmt.Errorf("stats: unknown statistic %s", id)
	}
	if group[i].InDropList {
		return 0, nil
	}
	if fp := m.failpointFn(); fp != nil {
		if err := fp(ctx, "refresh", id); err != nil {
			return 0, fmt.Errorf("stats: refresh %s vetoed: %w", id, err)
		}
	}
	old := group[i]
	fresh, err := m.build(ctx, old.Table, old.Columns, met)
	if err != nil {
		return 0, fmt.Errorf("stats: refresh %s: %w", id, err)
	}
	fresh.CreatedAt = old.CreatedAt
	fresh.UpdateCount = old.UpdateCount + 1
	group = slices.Clone(group)
	group[i] = fresh
	m.accMu.Lock()
	m.acct.TotalUpdateCost += fresh.BuildCost
	m.acct.UpdateOpCount++
	m.accMu.Unlock()
	met.refreshes.Inc()
	met.updateUnits.Add(fresh.BuildCost)
	m.publish(v.withGroup(id.Table(), group), met)
	return fresh.BuildCost, nil
}

// refreshTableCost refreshes every maintained statistic on the table, in ID
// order, and takes the modifications it has seen off the table's counter. It
// returns the number refreshed and the update cost charged by this call
// alone. The writer mutex is held for the whole pass; each refreshed
// statistic is published as it completes. Cancellation is checked between the
// per-statistic rebuilds.
//
// The counter is read before the first rebuild and only that amount is
// subtracted after the last: DML that commits during the pass may have missed
// an earlier statistic's scan, so it stays pending for the next pass.
func (m *Manager) refreshTableCost(ctx context.Context, table string) (int, float64, error) {
	table = strings.ToLower(table)
	met := m.metrics()
	m.mu.Lock()
	defer m.mu.Unlock()
	td, err := m.db.Table(table)
	if err != nil {
		return 0, 0, err
	}
	seen := td.ModCounter()
	n := 0
	var cost float64
	for _, s := range m.cur.Load().byTable[table] {
		if s.InDropList {
			continue
		}
		c, err := m.refresh(ctx, s.ID, met)
		if err != nil {
			return n, cost, err
		}
		cost += c
		n++
	}
	td.ResetModCounter(seen)
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

// StatsOnTable returns all existing statistics on a table, in ID order.
func (m *Manager) StatsOnTable(table string) []*Statistic {
	return slices.Clone(m.cur.Load().byTable[strings.ToLower(table)])
}

// StatsForColumn returns all statistics whose leading (histogram-bearing)
// column is table.column — the statistics usable to estimate a predicate on
// that column. Single-column statistics sort first so the estimator prefers
// the most precise structure.
func (m *Manager) StatsForColumn(table, column string) []*Statistic {
	table, column = strings.ToLower(table), strings.ToLower(column)
	var out []*Statistic
	for _, s := range m.cur.Load().byTable[table] {
		if s.LeadingColumn() == column {
			out = append(out, s)
		}
	}
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
	return m.acct
}

// ResetAccounting zeroes the cumulative cost counters (between experiment
// phases).
func (m *Manager) ResetAccounting() {
	m.accMu.Lock()
	defer m.accMu.Unlock()
	m.acct = Accounting{}
}

// dropAll removes every statistic without recording aging drops — the
// wholesale reset of the package's tests.
func (m *Manager) dropAll() {
	met := m.metrics()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.publish(&version{epoch: m.cur.Load().epoch + 1}, met)
}
