package autostats

import (
	"context"
	"fmt"

	"autostats/internal/core"
	"autostats/internal/query"
	"autostats/internal/sqlparser"
	"autostats/internal/stats"
	"autostats/internal/workload"
)

// TuneOptions configures statistics selection.
type TuneOptions struct {
	// ThresholdPct is the t of t-optimizer-cost equivalence, in percent
	// (default 20, the paper's conservative choice).
	ThresholdPct float64
	// Epsilon pins the extreme selectivities of MNSA (default 0.0005).
	Epsilon float64
	// SingleColumnOnly restricts candidates to single-column statistics.
	SingleColumnOnly bool
	// Exhaustive uses the exhaustive candidate space (baseline; expensive).
	Exhaustive bool
	// Drop enables MNSA/D: detect non-essential statistics during creation
	// and place them on the drop-list.
	Drop bool
	// Shrink runs the Shrinking Set algorithm after MNSA, drop-listing
	// everything outside the resulting essential set (the offline policy of
	// §6).
	Shrink bool
	// SmallTableRows creates candidates on tables at or below this size
	// without sensitivity analysis (§4.3's threshold augmentation).
	SmallTableRows int
	// UseAging dampens re-creation of recently dropped statistics (§6).
	UseAging bool
}

func (o TuneOptions) config() core.Config {
	cfg := core.DefaultConfig()
	if o.ThresholdPct > 0 {
		cfg.T = o.ThresholdPct
	}
	if o.Epsilon > 0 {
		cfg.Epsilon = o.Epsilon
	}
	switch {
	case o.Exhaustive:
		cfg.CandidateFn = core.ExhaustiveStats
	case o.SingleColumnOnly:
		cfg.CandidateFn = core.SingleColumnCandidates
	}
	cfg.Drop = o.Drop
	cfg.MinTableRows = o.SmallTableRows
	cfg.UseAging = o.UseAging
	return cfg
}

// TuneReport summarizes a tuning run.
type TuneReport struct {
	// Created lists statistics built, in creation order.
	Created []string
	// DropListed lists statistics identified as non-essential.
	DropListed []string
	// Essential lists the essential set when Shrink ran (nil otherwise).
	Essential []string
	// OptimizerCalls counts optimizations performed by the algorithms.
	OptimizerCalls int
	// CreationCostUnits is the statistics build cost in work units.
	CreationCostUnits float64
	// Degraded reports whether the run completed in degraded mode: some
	// statistic builds failed and the affected queries were planned on
	// default magic-number selectivities instead.
	Degraded bool
	// BuildFailures lists the statistics whose build failed.
	BuildFailures []string
}

// TuneQuery runs MNSA (or MNSA/D when opts.Drop) for one SELECT statement,
// creating the statistics it needs, honoring cancellation and deadlines.
// Tuning entry points serialize on the system's internal mutex; concurrent
// callers queue (see the System doc comment).
func (s *System) TuneQuery(ctx context.Context, sql string, opts TuneOptions) (*TuneReport, error) {
	q, err := sqlparser.ParseSelect(s.db.Schema, sql)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mgr.ResetAccounting()
	s.sess.ClearDegraded()
	res, err := core.RunMNSA(ctx, s.sess, q, opts.config())
	if err != nil {
		return nil, err
	}
	rep := &TuneReport{
		Created:           idsToStrings(res.Created),
		DropListed:        idsToStrings(res.DropListed),
		OptimizerCalls:    res.OptimizerCalls,
		CreationCostUnits: s.mgr.Snapshot().TotalBuildCost,
		Degraded:          res.Degraded(),
	}
	for _, f := range res.BuildFailures {
		rep.BuildFailures = append(rep.BuildFailures, string(f.ID))
	}
	return rep, nil
}

// TuneWorkloadCtx runs MNSA over every SELECT in the workload, then
// optionally the Shrinking Set algorithm (opts.Shrink) — the offline policy
// of §6. Non-SELECT statements are ignored for selection purposes. ctx is
// checked between workload queries, between per-statistic build steps, and
// through the shrinking phase, so an interrupted run returns promptly with
// the statistics already built intact.
func (s *System) TuneWorkloadCtx(ctx context.Context, sqls []string, opts TuneOptions) (*TuneReport, error) {
	queries, err := s.parseQueries(sqls)
	if err != nil {
		return nil, err
	}
	return s.tuneQueries(ctx, queries, opts)
}

func (s *System) tuneQueries(ctx context.Context, queries []*query.Select, opts TuneOptions) (*TuneReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mgr.ResetAccounting()
	s.sess.ClearDegraded()
	cfg := opts.config()
	rep := &TuneReport{}
	sp := s.sess.Obs().StartSpan("tune.workload", func() map[string]any {
		return map[string]any{"queries": len(queries), "shrink": opts.Shrink}
	})
	defer func() {
		sp.End(func() map[string]any {
			return map[string]any{
				"created":         len(rep.Created),
				"drop_listed":     len(rep.DropListed),
				"optimizer_calls": rep.OptimizerCalls,
				"build_failures":  len(rep.BuildFailures),
			}
		})
	}()
	record := func(wr *core.WorkloadResult) {
		rep.Created = idsToStrings(wr.Created)
		rep.DropListed = idsToStrings(wr.DropListed)
		rep.OptimizerCalls = wr.OptimizerCalls
		rep.Degraded = wr.Degraded()
		for _, f := range wr.BuildFailures {
			rep.BuildFailures = append(rep.BuildFailures, string(f.ID))
		}
	}
	if opts.Shrink {
		tr, err := core.OfflineTuneCtx(ctx, s.sess, queries, cfg, nil)
		if err != nil {
			return nil, err
		}
		record(tr.MNSA)
		// MNSA/D's drop-list entries stay on the drop-list whatever Shrinking
		// Set decides about them, so the report is the union: MNSA/D's first,
		// then what shrinking added.
		byMNSA := make(map[stats.ID]bool, len(tr.MNSA.DropListed))
		for _, id := range tr.MNSA.DropListed {
			byMNSA[id] = true
		}
		for _, id := range tr.DropListed {
			if !byMNSA[id] {
				rep.DropListed = append(rep.DropListed, string(id))
			}
		}
		rep.Essential = idsToStrings(tr.Shrink.Kept)
		rep.OptimizerCalls = tr.MNSA.OptimizerCalls + tr.Shrink.OptimizerCalls
	} else {
		wr, err := core.RunMNSAWorkloadCtx(ctx, s.sess, queries, cfg)
		if err != nil {
			return nil, err
		}
		record(wr)
	}
	rep.CreationCostUnits = s.mgr.Snapshot().TotalBuildCost
	return rep, nil
}

func (s *System) parseQueries(sqls []string) ([]*query.Select, error) {
	var queries []*query.Select
	for i, sql := range sqls {
		stmt, err := sqlparser.Parse(s.db.Schema, sql)
		if err != nil {
			return nil, fmt.Errorf("autostats: statement %d: %w", i+1, err)
		}
		if q, ok := stmt.(*query.Select); ok {
			queries = append(queries, q)
		}
	}
	return queries, nil
}

func idsToStrings(ids []stats.ID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return out
}

// ProcessStatementCtx handles one incoming statement under the on-the-fly
// policy (§6): SELECTs pass through MNSA first, DML executes and
// periodically triggers the maintenance policy. ctx is honored before the
// statement changes any state, before execution, and through the MNSA
// analysis, statistic builds and periodic maintenance, so a canceled
// statement never applies its DML. Statements whose statistics cannot be
// built still execute — on degraded magic-number plans, reported in
// QueryResult.Degraded — and an executed statement is returned even when the
// maintenance pass after it fails or is canceled.
func (s *System) ProcessStatementCtx(ctx context.Context, sql string) (*QueryResult, error) {
	stmt, err := sqlparser.Parse(s.db.Schema, sql)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := s.auto.ProcessStatement(ctx, stmt)
	if err != nil {
		return nil, err
	}
	out := renderResult(res)
	out.Degraded = s.sess.DegradedReasons()
	return out, nil
}

// WorkloadOptions configures the Rags-like generator via the paper's knobs.
type WorkloadOptions struct {
	// Count is the number of statements (default 100).
	Count int
	// UpdatePct is the percentage of insert/update/delete statements.
	UpdatePct int
	// Complex allows up to 8 tables per query (default Simple: 2).
	Complex bool
	// Seed defaults to 1.
	Seed int64
}

// GenerateWorkload produces a workload's SQL statements over this system's
// database, sampling predicate constants from the live data.
func (s *System) GenerateWorkload(opts WorkloadOptions) ([]string, error) {
	if opts.Count == 0 {
		opts.Count = 100
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	cfg := workload.Config{
		Count:     opts.Count,
		UpdatePct: opts.UpdatePct,
		Seed:      opts.Seed,
	}
	if opts.Complex {
		cfg.Complexity = workload.Complex
	}
	w, err := workload.Generate(s.db, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(w.Statements))
	for i, stmt := range w.Statements {
		out[i] = stmt.SQL()
	}
	return out, nil
}

// TPCDOrigWorkload returns the 17-query TPCD-ORIG workload's SQL.
func (s *System) TPCDOrigWorkload() ([]string, error) {
	w, err := workload.TPCDOrig(s.db.Schema)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(w.Statements))
	for i, stmt := range w.Statements {
		out[i] = stmt.SQL()
	}
	return out, nil
}

// RunMaintenance applies the SQL Server 7.0-style maintenance policy of §6
// once: refresh statistics on heavily modified tables, drop over-updated
// drop-listed statistics. It honors cancellation between tables and
// statistics and returns the full report. A table whose refresh fails is
// recorded in the report's RefreshFailures and retried by the next pass;
// only cancellation returns an error.
func (s *System) RunMaintenance(ctx context.Context) (stats.MaintenanceReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mgr.RunMaintenance(ctx, s.auto.Policy)
}
