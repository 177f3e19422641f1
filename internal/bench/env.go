// Package bench implements the experiment harness that regenerates every
// table and figure of the paper's §8 evaluation (plus the §1 motivating
// experiment and the ablations called out in DESIGN.md). cmd/experiments is
// its front end. Every experiment arm goes through one runner, cell.runArm:
// a fresh database and workload, a timed tuning step, and the workload's
// execution cost under the statistics the step left.
package bench

import (
	"context"
	"fmt"
	"time"

	"autostats/internal/core"
	"autostats/internal/datagen"
	"autostats/internal/executor"
	"autostats/internal/histogram"
	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/stats"
	"autostats/internal/storage"
	"autostats/internal/workload"
)

// optimizerCallUnits charges one full optimization at the equivalent of
// scanning a few hundred rows when folding MNSA's overhead into "statistics
// creation cost" (§8.2 includes the overhead; §4.3: "the time to create a
// statistic typically far exceeds the time to optimize a query").
const optimizerCallUnits = 200.0

// env is one freshly generated database with its statistics manager,
// optimizer session and executor.
type env struct {
	db   *storage.Database
	mgr  *stats.Manager
	sess *optimizer.Session
	ex   *executor.Executor
}

// newEnv generates the named paper database (TPCD_0, TPCD_2, TPCD_4,
// TPCD_MIX) at the given scale, with statistics of the given histogram kind.
func newEnv(dbName string, scale float64, kind histogram.Kind) (*env, error) {
	cfg, err := datagen.ConfigByName(dbName)
	if err != nil {
		return nil, err
	}
	cfg.Scale = scale
	db, err := datagen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	mgr := stats.NewManager(db, kind, 0)
	return &env{
		db:   db,
		mgr:  mgr,
		sess: optimizer.NewSession(mgr),
		ex:   executor.New(db),
	}, nil
}

// createIndexedColumnStats builds single-column statistics on every indexed
// column, mirroring the paper's tuned baseline ("besides statistics on
// indexed columns") — index creation auto-creates a statistic in SQL Server.
func (e *env) createIndexedColumnStats() error {
	for _, ix := range e.db.Schema.Indexes {
		if _, err := e.mgr.Create(ix.Table, []string{ix.Column}); err != nil {
			return fmt.Errorf("bench: stats on indexed column %s.%s: %w", ix.Table, ix.Column, err)
		}
	}
	return nil
}

// planAndRun optimizes q under the env's current statistics and executes the
// plan, returning the plan and its execution cost in work units.
func (e *env) planAndRun(q *query.Select) (*optimizer.Plan, float64, error) {
	plan, err := e.sess.Optimize(q)
	if err != nil {
		return nil, 0, err
	}
	res, err := e.ex.Run(plan)
	if err != nil {
		return nil, 0, err
	}
	return plan, res.Cost, nil
}

// execute plans and runs every query and returns the summed execution cost
// in work units.
func (e *env) execute(queries []*query.Select) (float64, error) {
	total := 0.0
	for _, q := range queries {
		_, cost, err := e.planAndRun(q)
		if err != nil {
			return 0, err
		}
		total += cost
	}
	return total, nil
}

// cell names one experiment cell: a paper database at a scale, a Rags
// workload (e.g. "U25-C-100") generated from a seed, and the histogram kind
// of the statistics built on it.
type cell struct {
	db, workload string
	scale        float64
	seed         int64
	kind         histogram.Kind
}

// newCell is a cell with MaxDiff statistics, the paper's configuration.
func newCell(dbName, wlName string, scale float64, seed int64) cell {
	return cell{db: dbName, workload: wlName, scale: scale, seed: seed, kind: histogram.MaxDiff}
}

// open generates a fresh copy of the cell's database and builds the cell's
// workload over it. Every arm of an experiment opens its own copy of
// identical data (same generator seed), so one arm's statistics and DML
// cannot leak into another.
func (c cell) open() (*env, *workload.Workload, error) {
	e, err := newEnv(c.db, c.scale, c.kind)
	if err != nil {
		return nil, nil, err
	}
	cfg, err := workload.ConfigByName(c.workload, c.seed)
	if err != nil {
		return nil, nil, err
	}
	w, err := workload.Generate(e.db, cfg)
	if err != nil {
		return nil, nil, err
	}
	return e, w, nil
}

// tuner is one arm's statistics policy: it builds statistics in e for the
// workload's queries and reports how many it built and how many optimizer
// calls it made.
type tuner func(e *env, queries []*query.Select) (created, optCalls int, err error)

// build is the policy that creates exactly the given statistics, in order.
func build(cands []core.Candidate) tuner {
	return func(e *env, _ []*query.Select) (int, int, error) {
		for _, c := range cands {
			if _, err := e.mgr.Create(c.Table, c.Columns); err != nil {
				return 0, 0, err
			}
		}
		return len(cands), 0, nil
	}
}

// createAll is the policy that creates every candidate fn proposes for the
// workload's queries.
func createAll(fn func(*query.Select) []core.Candidate) tuner {
	return func(e *env, queries []*query.Select) (int, int, error) {
		return build(core.WorkloadCandidates(queries, fn))(e, queries)
	}
}

// mnsa is the MNSA policy under cfg, run over the workload's queries in order.
func mnsa(cfg core.Config) tuner {
	return func(e *env, queries []*query.Select) (int, int, error) {
		wr, err := core.RunMNSAWorkloadCtx(context.Background(), e.sess, queries, cfg)
		if err != nil {
			return 0, 0, err
		}
		return len(wr.Created), wr.OptimizerCalls, nil
	}
}

// armResult is what one arm of an experiment measured.
type armResult struct {
	created  int           // statistics the tuning step built
	optCalls int           // optimizer calls the tuning step made
	units    float64       // creation cost: build units + optCalls × optimizerCallUnits
	wall     time.Duration // wall time of the tuning step, unpaired and single-shot
	exec     float64       // workload execution cost afterwards, in work units
}

// runArm is the one runner every experiment arm goes through: it opens a
// fresh copy of the cell, times tune, charges the builds and optimizer calls
// it made, and executes the workload's queries under the statistics it left.
func (c cell) runArm(tune tuner) (*armResult, error) {
	e, w, err := c.open()
	if err != nil {
		return nil, err
	}
	queries := w.Queries()
	start := time.Now()
	created, calls, err := tune(e, queries)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	units := e.mgr.Snapshot().TotalBuildCost + float64(calls)*optimizerCallUnits
	exec, err := e.execute(queries)
	if err != nil {
		return nil, err
	}
	return &armResult{created: created, optCalls: calls, units: units, wall: wall, exec: exec}, nil
}

// pctReduction returns (base−new)/base in percent (0 when base is 0).
func pctReduction(base, new float64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (base - new) / base
}

// PctIncrease returns (new−base)/base in percent (0 when base is 0).
func PctIncrease(base, new float64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (new - base) / base
}
