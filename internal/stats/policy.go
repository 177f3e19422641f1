package stats

import (
	"context"
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
}

// DefaultMaintenancePolicy mirrors the paper's recommended configuration.
func DefaultMaintenancePolicy() MaintenancePolicy {
	return MaintenancePolicy{UpdateFraction: 0.2, MaxUpdates: 4, DropListOnly: true}
}

// RefreshFailure records one table refresh the pass could not complete, with
// the underlying cause (errors.Is sees through it).
type RefreshFailure struct {
	Table string
	Err   error
}

// MaintenanceReport summarizes one maintenance pass.
type MaintenanceReport struct {
	TablesRefreshed int
	StatsRefreshed  int
	StatsDropped    int
	UpdateCostUnits float64

	// RefreshFailures lists the tables whose refresh failed; the pass is
	// degraded when non-empty.
	RefreshFailures []RefreshFailure
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
//
// ctx is checked between tables and between per-statistic rebuilds, so a
// canceled pass stops at the next boundary with the report covering exactly
// the work completed; it also bounds each rebuild (see EnsureCtx). Only
// cancellation aborts the pass. A table whose refresh fails for any other
// reason is recorded in RefreshFailures and the pass moves on to the next
// table. A table the pass did not finish, failed or cut short, keeps its
// modification counter, so the next pass refreshes it again.
func (m *Manager) RunMaintenance(ctx context.Context, p MaintenancePolicy) (MaintenanceReport, error) {
	reg := m.ObsRegistry()
	start := time.Now()
	sp := reg.StartSpan("stats.maintenance", nil)
	var rep MaintenanceReport
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
		n, cost, err := m.refreshTableCost(ctx, table)
		rep.UpdateCostUnits += cost
		if err != nil {
			if ctx.Err() != nil {
				return rep, err
			}
			rep.RefreshFailures = append(rep.RefreshFailures, RefreshFailure{Table: table, Err: err})
			continue
		}
		if n > 0 {
			rep.TablesRefreshed++
			rep.StatsRefreshed += n
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

	reg.Counter("stats.maintenance.passes").Inc()
	reg.Counter("stats.maintenance.tables_refreshed").Add(int64(rep.TablesRefreshed))
	reg.Counter("stats.maintenance.stats_refreshed").Add(int64(rep.StatsRefreshed))
	reg.Counter("stats.maintenance.stats_dropped").Add(int64(rep.StatsDropped))
	reg.Counter("stats.maintenance.refresh_failures").Add(int64(len(rep.RefreshFailures)))
	if len(rep.RefreshFailures) > 0 {
		reg.Counter("degraded.maintenance_passes").Inc()
	}
	reg.FloatCounter("stats.maintenance.update_cost_units").Add(rep.UpdateCostUnits)
	reg.Timing("stats.maintenance.latency").Observe(time.Since(start))
	sp.End(func() map[string]any {
		return map[string]any{
			"tables_refreshed": rep.TablesRefreshed,
			"stats_refreshed":  rep.StatsRefreshed,
			"stats_dropped":    rep.StatsDropped,
			"refresh_failures": len(rep.RefreshFailures),
			"update_cost":      rep.UpdateCostUnits,
		}
	})
	return rep, nil
}
