package stats

import (
	"context"
	"strings"
	"time"
)

// MaintenancePolicy captures the SQL Server 7.0 auto-statistics maintenance
// policy described in §2 and §6: statistics on a table are refreshed when
// the rows modified since the last refresh exceed a fraction of the table
// size, and a statistic refreshed more than MaxUpdates times is physically
// dropped. The paper's modification (§6) restricts dropping to statistics
// already identified as non-essential, i.e. in the drop-list.
type MaintenancePolicy struct {
	// UpdateFraction triggers a refresh of a table's statistics when
	// modCounter > UpdateFraction * rowCount. SQL Server 7.0 used a value
	// in this spirit; 0.2 is the default here.
	UpdateFraction float64
	// MaxUpdates physically drops a statistic updated more than this many
	// times. Zero disables dropping.
	MaxUpdates int
	// DropListOnly, when true, applies the paper's extension: only
	// drop-listed (non-essential) statistics are eligible for physical drop.
	DropListOnly bool

	// QErrorThreshold enables the execution-feedback refresh path: a
	// maintained statistic whose leading column shows an observed q-error
	// above this threshold (with at least FeedbackMinObservations
	// observations in the current evidence window) is refreshed even when
	// the table's row-modification counter is below UpdateFraction. The
	// row-mod counter misses skew shifts that rewrite few rows but move much
	// probability mass; the optimizer being measurably wrong is the more
	// direct signal. Zero disables the path (and feedback drop confirmation).
	QErrorThreshold float64
	// FeedbackMinObservations gates both feedback actions; <=1 means one
	// observation suffices.
	FeedbackMinObservations int64
	// FeedbackConfirmDrop, when true, physically drops drop-listed statistics
	// whose leading column stayed accurate (max q-error at or below
	// QErrorThreshold with enough observations): the drop-list marked them
	// non-essential, feedback confirms the estimates hold up, so the drop is
	// confidence-boosted rather than waiting out MaxUpdates refresh cycles.
	FeedbackConfirmDrop bool

	// TolerateFailures turns per-table refresh failures from pass-aborting
	// errors into recorded RefreshFailures: the pass skips the failing table
	// (leaving its modification counter intact so a later pass retries) and
	// keeps maintaining the rest. The resilience layer sets this so one
	// failing build path cannot starve every other table of maintenance.
	// Cancellation still aborts the pass.
	TolerateFailures bool
	// SkipTable, when non-nil, is consulted before refreshing a table; a
	// true return skips it (counted in TablesSkipped). The resilience layer
	// uses it to keep maintenance from hammering tables whose circuit
	// breaker is open.
	SkipTable func(table string) bool
}

// DefaultMaintenancePolicy mirrors the paper's recommended configuration.
// Execution feedback is off; see DefaultFeedbackPolicy.
func DefaultMaintenancePolicy() MaintenancePolicy {
	return MaintenancePolicy{UpdateFraction: 0.2, MaxUpdates: 4, DropListOnly: true}
}

// DefaultQErrorThreshold is the feedback refresh trigger used by
// DefaultFeedbackPolicy: estimates off by more than 2x either way.
const DefaultQErrorThreshold = 2.0

// DefaultFeedbackPolicy is DefaultMaintenancePolicy with the execution-
// feedback paths enabled.
func DefaultFeedbackPolicy() MaintenancePolicy {
	p := DefaultMaintenancePolicy()
	p.QErrorThreshold = DefaultQErrorThreshold
	p.FeedbackMinObservations = 2
	p.FeedbackConfirmDrop = true
	return p
}

// RefreshFailure records one refresh the pass could not complete under
// MaintenancePolicy.TolerateFailures: the table (and statistic, for the
// feedback path), and the underlying cause — preserved unwrapped-able so the
// resilience layer can classify it transient or permanent.
type RefreshFailure struct {
	Table string
	// Stat is the specific statistic for feedback-path failures; empty when
	// a whole-table counter-driven refresh failed.
	Stat ID
	Err  error
}

// MaintenanceReport summarizes one maintenance pass.
type MaintenanceReport struct {
	TablesRefreshed int
	StatsRefreshed  int
	StatsDropped    int
	// StatsFeedbackRefreshed counts statistics refreshed by the q-error
	// feedback path alone — their tables' row-mod counters were below the
	// UpdateFraction threshold.
	StatsFeedbackRefreshed int
	// StatsDropConfirmed counts drop-listed statistics physically dropped on
	// feedback confirmation (accurate estimates, FeedbackConfirmDrop set).
	StatsDropConfirmed int
	UpdateCostUnits    float64

	// RefreshedTables names the tables this pass counter-refreshed, in
	// schema order (the resilience layer feeds them to breaker resets).
	RefreshedTables []string
	// TablesSkipped counts tables the SkipTable hook excluded.
	TablesSkipped int
	// RefreshFailures lists refreshes tolerated under TolerateFailures; the
	// pass is degraded when non-empty.
	RefreshFailures []RefreshFailure
}

// Degraded reports whether the pass completed in degraded mode: at least one
// refresh failed (and was tolerated) or was skipped by an open breaker.
func (r MaintenanceReport) Degraded() bool {
	return len(r.RefreshFailures) > 0 || r.TablesSkipped > 0
}

// RunMaintenance applies the policy once across all tables: refreshes
// statistics on tables whose modification counter exceeds the threshold,
// then drops over-updated statistics per the policy.
//
// UpdateCostUnits in the report is the cost charged by this pass alone: each
// table refresh returns the units it charged under the manager lock and the
// pass sums them, so refreshes issued concurrently by other goroutines are
// never misattributed to this pass (diffing the global TotalUpdateCost
// before/after would fold them in).
func (m *Manager) RunMaintenance(p MaintenancePolicy) (MaintenanceReport, error) {
	return m.RunMaintenanceCtx(context.Background(), p)
}

// RunMaintenanceCtx is RunMaintenance honoring cancellation and deadlines:
// ctx is checked between tables and between per-statistic rebuilds, so a
// canceled pass stops at the next boundary with the report covering exactly
// the work completed. ctx also bounds each statistic rebuild (see EnsureCtx).
func (m *Manager) RunMaintenanceCtx(ctx context.Context, p MaintenancePolicy) (MaintenanceReport, error) {
	reg := m.ObsRegistry()
	start := time.Now()
	sp := reg.StartSpan("stats.maintenance", nil)
	var rep MaintenanceReport

	// Snapshot feedback evidence BEFORE any refresh: every refresh bumps the
	// statistics epoch, which retires the provider's current evidence window,
	// so summaries read mid-pass would be empty.
	minObs := p.FeedbackMinObservations
	if minObs < 1 {
		minObs = 1
	}
	var qerr map[[2]string]QErrorSummary
	if p.QErrorThreshold > 0 {
		if fb := m.feedbackProvider(); fb != nil {
			qerr = make(map[[2]string]QErrorSummary)
			for _, s := range fb.QErrorSummaries() {
				if s.Count >= minObs {
					qerr[[2]string{s.Table, s.Column}] = s
				}
			}
		}
	}

	refreshedTables := make(map[string]bool)
	for _, table := range m.db.Schema.TableNames() {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		td, err := m.db.Table(table)
		if err != nil {
			return rep, err
		}
		// The threshold is relative to the CURRENT row count, so a table
		// emptied by deletes has threshold 0 and any pending modifications
		// trigger a refresh. (Skipping empty tables here would strand their
		// statistics at the pre-delete cardinalities forever: the mod counter
		// keeps growing but the refresh never fires.)
		threshold := p.UpdateFraction * float64(td.RowCount())
		if float64(td.ModCounter()) <= threshold {
			continue
		}
		if p.SkipTable != nil && p.SkipTable(table) {
			rep.TablesSkipped++
			continue
		}
		n, cost, err := m.refreshTableCost(ctx, table)
		rep.UpdateCostUnits += cost
		if err != nil {
			// Cancellation always aborts; other failures are tolerated when
			// the policy says so: record the cause (unwrapped-able, for the
			// transient/permanent classifier) and maintain the rest. The
			// table's modification counter is deliberately left set so the
			// next pass retries it.
			if !p.TolerateFailures || ctx.Err() != nil {
				return rep, err
			}
			rep.RefreshFailures = append(rep.RefreshFailures, RefreshFailure{Table: strings.ToLower(table), Err: err})
			continue
		}
		if n > 0 {
			rep.TablesRefreshed++
			rep.StatsRefreshed += n
			lt := strings.ToLower(table)
			refreshedTables[lt] = true
			rep.RefreshedTables = append(rep.RefreshedTables, lt)
		}
	}

	// Feedback-triggered refresh (the tentpole loop-closer): a maintained
	// statistic whose leading column was observed estimating badly is
	// refreshed even though its table's row-mod counter stayed below the
	// threshold. Tables already refreshed above are skipped — they are fresh.
	if len(qerr) > 0 {
		for _, s := range m.Maintained() {
			if err := ctx.Err(); err != nil {
				return rep, err
			}
			if refreshedTables[s.Table] {
				continue
			}
			sum, ok := qerr[[2]string{s.Table, s.LeadingColumn()}]
			if !ok || sum.MaxQ <= p.QErrorThreshold {
				continue
			}
			if p.SkipTable != nil && p.SkipTable(s.Table) {
				rep.TablesSkipped++
				continue
			}
			cost, err := m.refreshStatCost(ctx, s.ID)
			rep.UpdateCostUnits += cost
			if err != nil {
				if !p.TolerateFailures || ctx.Err() != nil {
					return rep, err
				}
				rep.RefreshFailures = append(rep.RefreshFailures, RefreshFailure{Table: s.Table, Stat: s.ID, Err: err})
				continue
			}
			rep.StatsFeedbackRefreshed++
		}
	}

	if p.MaxUpdates > 0 {
		for _, s := range m.All() {
			if s.UpdateCount <= p.MaxUpdates {
				continue
			}
			if p.DropListOnly && !s.InDropList {
				continue
			}
			if m.Drop(s.ID) {
				rep.StatsDropped++
			}
		}
	}

	// Feedback drop confirmation: a drop-listed statistic whose leading
	// column kept estimating accurately is physically dropped now instead of
	// waiting out MaxUpdates refresh cycles — the drop-list said it is
	// non-essential, the executor's evidence agrees.
	if p.QErrorThreshold > 0 && p.FeedbackConfirmDrop && qerr != nil {
		for _, s := range m.DropList() {
			sum, ok := qerr[[2]string{s.Table, s.LeadingColumn()}]
			if !ok || sum.MaxQ > p.QErrorThreshold {
				continue
			}
			if m.Drop(s.ID) {
				rep.StatsDropConfirmed++
			}
		}
	}

	reg.Counter("stats.maintenance.passes").Inc()
	reg.Counter("stats.maintenance.tables_refreshed").Add(int64(rep.TablesRefreshed))
	reg.Counter("stats.maintenance.stats_refreshed").Add(int64(rep.StatsRefreshed))
	reg.Counter("stats.maintenance.stats_dropped").Add(int64(rep.StatsDropped))
	reg.Counter("stats.maintenance.feedback_refreshes").Add(int64(rep.StatsFeedbackRefreshed))
	reg.Counter("stats.maintenance.drops_confirmed").Add(int64(rep.StatsDropConfirmed))
	reg.Counter("stats.maintenance.refresh_failures").Add(int64(len(rep.RefreshFailures)))
	reg.Counter("stats.maintenance.tables_skipped").Add(int64(rep.TablesSkipped))
	if rep.Degraded() {
		reg.Counter("degraded.maintenance_passes").Inc()
	}
	reg.FloatCounter("stats.maintenance.update_cost_units").Add(rep.UpdateCostUnits)
	reg.Timing("stats.maintenance.latency").Observe(time.Since(start))
	sp.End(func() map[string]any {
		return map[string]any{
			"tables_refreshed":   rep.TablesRefreshed,
			"stats_refreshed":    rep.StatsRefreshed,
			"stats_dropped":      rep.StatsDropped,
			"feedback_refreshes": rep.StatsFeedbackRefreshed,
			"drops_confirmed":    rep.StatsDropConfirmed,
			"refresh_failures":   len(rep.RefreshFailures),
			"tables_skipped":     rep.TablesSkipped,
			"update_cost":        rep.UpdateCostUnits,
		}
	})
	return rep, nil
}
