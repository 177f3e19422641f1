// Package bench implements the experiment harness that regenerates every
// table and figure of the paper's §8 evaluation (plus the §1 motivating
// experiment and the ablations called out in DESIGN.md). It is shared by
// cmd/experiments and the root bench_test.go.
package bench

import (
	"fmt"

	"autostats/internal/datagen"
	"autostats/internal/executor"
	"autostats/internal/histogram"
	"autostats/internal/optimizer"
	"autostats/internal/stats"
	"autostats/internal/storage"
	"autostats/internal/workload"
)

// env is one freshly generated database with its statistics manager,
// optimizer session and executor. Experiments that compare two statistics
// policies run each policy in its own env over identical data (same
// generator seed) so DML side effects cannot leak between arms.
type env struct {
	db   *storage.Database
	mgr  *stats.Manager
	sess *optimizer.Session
	ex   *executor.Executor
}

// newEnv generates the named paper database (TPCD_0, TPCD_2, TPCD_4,
// TPCD_MIX) at the given scale.
func newEnv(dbName string, scale float64) (*env, error) {
	cfg, err := datagen.ConfigByName(dbName)
	if err != nil {
		return nil, err
	}
	cfg.Scale = scale
	db, err := datagen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	mgr := stats.NewManager(db, histogram.MaxDiff, 0)
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

// buildWorkload builds the named Rags workload (e.g. "U25-C-100") over this
// environment's database with a deterministic seed.
func (e *env) buildWorkload(name string, seed int64) (*workload.Workload, error) {
	cfg, err := workload.ConfigByName(name, seed)
	if err != nil {
		return nil, err
	}
	return workload.Generate(e.db, cfg)
}

// executeQueries optimizes and executes every SELECT in the workload under
// the env's current statistics and returns the total execution cost in work
// units.
func (e *env) executeQueries(w *workload.Workload) (float64, error) {
	total := 0.0
	for _, q := range w.Queries() {
		plan, err := e.sess.Optimize(q)
		if err != nil {
			return 0, err
		}
		res, err := e.ex.Run(plan)
		if err != nil {
			return 0, err
		}
		total += res.Cost
	}
	return total, nil
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
