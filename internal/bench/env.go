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

// Env is one freshly generated database with its statistics manager,
// optimizer session and executor. Experiments that compare two statistics
// policies run each policy in its own Env over identical data (same
// generator seed) so DML side effects cannot leak between arms.
type Env struct {
	DBName string
	DB     *storage.Database
	Mgr    *stats.Manager
	Sess   *optimizer.Session
	Ex     *executor.Executor
}

// NewEnv generates the named paper database (TPCD_0, TPCD_2, TPCD_4,
// TPCD_MIX) at the given scale.
func NewEnv(dbName string, scale float64) (*Env, error) {
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
	return &Env{
		DBName: dbName,
		DB:     db,
		Mgr:    mgr,
		Sess:   optimizer.NewSession(mgr),
		Ex:     executor.New(db),
	}, nil
}

// CreateIndexedColumnStats builds single-column statistics on every indexed
// column, mirroring the paper's tuned baseline ("besides statistics on
// indexed columns") — index creation auto-creates a statistic in SQL Server.
func (e *Env) CreateIndexedColumnStats() error {
	for _, ix := range e.DB.Schema.Indexes {
		if _, err := e.Mgr.Create(ix.Table, []string{ix.Column}); err != nil {
			return fmt.Errorf("bench: stats on indexed column %s.%s: %w", ix.Table, ix.Column, err)
		}
	}
	return nil
}

// Workload builds the named Rags workload (e.g. "U25-C-100") over this
// environment's database with a deterministic seed.
func (e *Env) Workload(name string, seed int64) (*workload.Workload, error) {
	cfg, err := workload.ConfigByName(name, seed)
	if err != nil {
		return nil, err
	}
	return workload.Generate(e.DB, cfg)
}

// ExecuteQueries optimizes and executes every SELECT in the workload under
// the env's current statistics and returns the total execution cost in work
// units.
func (e *Env) ExecuteQueries(w *workload.Workload) (float64, error) {
	total := 0.0
	for _, q := range w.Queries() {
		plan, err := e.Sess.Optimize(q)
		if err != nil {
			return 0, err
		}
		res, err := e.Ex.Run(plan)
		if err != nil {
			return 0, err
		}
		total += res.Cost
	}
	return total, nil
}

// PctReduction returns (base−new)/base in percent (0 when base is 0).
func PctReduction(base, new float64) float64 {
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
