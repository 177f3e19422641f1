package core

import (
	"context"

	"autostats/internal/executor"
	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/stats"
)

// AutoManager glues the mechanisms into the §6 policies. In on-the-fly mode
// (the most aggressive policy, as in SQL Server 7.0's auto-statistics, but
// MNSA-pruned) every incoming query first passes through MNSA (or MNSA/D),
// then is optimized and executed; DML statements execute directly and
// periodically trigger the maintenance policy (update counters, threshold
// refresh, drop-list-restricted drops).
type AutoManager struct {
	sess *optimizer.Session
	ex   *executor.Executor

	// MNSA configures the per-query statistics creation; set Drop for
	// MNSA/D behaviour.
	MNSA Config
	// Policy is the maintenance (auto-update/auto-drop) policy.
	Policy stats.MaintenancePolicy
	// MaintenanceEvery runs a maintenance pass after every N statements
	// (0 disables automatic maintenance).
	MaintenanceEvery int

	stmtCount int

	// Totals since construction.
	TotalExecCost   float64
	StatementsRun   int
	MaintenanceRuns int
	// DegradedStatements counts statements processed in degraded mode.
	DegradedStatements int
}

// NewAutoManager builds an auto manager with the paper's defaults
// (MNSA with t = 20 %, ε = 0.0005; SQL Server-style maintenance restricted
// to drop-listed statistics).
func NewAutoManager(sess *optimizer.Session, ex *executor.Executor) *AutoManager {
	return &AutoManager{
		sess:             sess,
		ex:               ex,
		MNSA:             DefaultConfig(),
		Policy:           stats.DefaultMaintenancePolicy(),
		MaintenanceEvery: 25,
	}
}

// ProcessStatement handles one incoming statement under the on-the-fly
// policy and returns its execution result and, for a SELECT, the MNSA run
// that preceded it (nil for DML).
//
// ctx is checked before the statement touches the clock or any counter and
// again before execution, so a canceled statement never applies its DML; it
// also flows through the MNSA analysis, statistic builds and the periodic
// maintenance pass. Statistics failures degrade the statement instead of
// failing it: the MNSA result's BuildFailures name the statistics that could
// not be built, and the statement executes on the plan for the statistics
// that exist. That plan is cached like any other; the next successful build
// bumps the statistics epoch in the cache key, so recovery needs no reset.
//
// Once the statement has executed, its result is returned whatever happens
// to the maintenance pass that follows it: refresh failures are recorded in
// the pass's report, and a pass cut short by cancellation leaves the
// remaining tables' modification counters set, so the next pass redoes
// their refreshes.
func (am *AutoManager) ProcessStatement(ctx context.Context, stmt query.Statement) (*executor.Result, *Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	mgr := am.sess.Manager()
	mgr.Tick()
	am.StatementsRun++
	reg := am.sess.Obs()
	reg.Counter("auto.statements").Inc()

	var mnsa *Result
	if q, ok := stmt.(*query.Select); ok {
		var err error
		if mnsa, err = RunMNSA(ctx, am.sess, q, am.MNSA); err != nil {
			return nil, nil, err
		}
		if mnsa.Degraded() {
			am.DegradedStatements++
			reg.Counter("degraded.statements").Inc()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	res, err := am.ex.RunStatement(am.sess, stmt)
	if err != nil {
		return nil, nil, err
	}
	am.TotalExecCost += res.Cost

	am.stmtCount++
	if am.MaintenanceEvery > 0 && am.stmtCount%am.MaintenanceEvery == 0 {
		if _, err := mgr.RunMaintenance(ctx, am.Policy); err == nil {
			am.MaintenanceRuns++
			reg.Counter("auto.maintenance_runs").Inc()
		}
	}
	return res, mnsa, nil
}

// TuneReport summarizes an offline tuning pass.
type TuneReport struct {
	// MNSA is the per-query creation phase outcome.
	MNSA *WorkloadResult
	// Shrink is the Shrinking Set phase outcome (nil if skipped).
	Shrink *ShrinkResult
	// DropListed lists the statistics moved to the drop-list by shrinking.
	DropListed []stats.ID
}

// BuildFailures returns the creation phase's build failures, if any.
func (r *TuneReport) BuildFailures() []BuildFailure {
	if r.MNSA == nil {
		return nil
	}
	return r.MNSA.BuildFailures
}

// OfflineTuneCtx implements the conservative §6 policy: an offline process runs
// MNSA over every query of the workload, then the Shrinking Set algorithm
// eliminates non-essential statistics, which are moved to the drop-list
// (physical deletion remains a separate policy action). eq nil defaults to
// execution-tree equivalence as in Figure 2. ctx is honored in both phases.
func OfflineTuneCtx(ctx context.Context, sess *optimizer.Session, queries []*query.Select, cfg Config, eq Equivalence) (*TuneReport, error) {
	if eq == nil {
		eq = ExecutionTree{}
	}
	rep := &TuneReport{}
	wr, err := RunMNSAWorkloadCtx(ctx, sess, queries, cfg)
	if err != nil {
		return nil, err
	}
	rep.MNSA = wr

	sr, err := ShrinkingSetCtx(ctx, sess, queries, nil, eq)
	if err != nil {
		return nil, err
	}
	rep.Shrink = sr
	mgr := sess.Manager()
	for _, id := range sr.Removed {
		if mgr.AddToDropList(id) {
			rep.DropListed = append(rep.DropListed, id)
		}
	}
	return rep, nil
}
