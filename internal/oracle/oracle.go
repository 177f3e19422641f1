package oracle

import (
	"fmt"

	"autostats/internal/datagen"
	"autostats/internal/executor"
	"autostats/internal/histogram"
	"autostats/internal/obs"
	"autostats/internal/optimizer"
	"autostats/internal/stats"
	"autostats/internal/storage"
	"autostats/internal/workload"
)

// Options parameterizes one harness instance. Every randomized decision
// derives from Seed, so a run is replayed exactly by its seed alone.
type Options struct {
	// Seed drives data generation, NULL injection and workload generation.
	Seed int64
	// Scale is the datagen scale factor (default 0.05, ~450 rows total —
	// small enough for the quadratic reference evaluator, large enough for
	// histograms to matter).
	Scale float64
	// Zipf is the datagen skew parameter (default 2, the paper's TPCD-2).
	Zipf float64
	// SimpleQueries restricts generated queries to at most 2 tables
	// (workload.Simple); the default is workload.Complex (up to 8).
	SimpleQueries bool
}

const (
	// maxNaiveRows bounds any intermediate relation of the reference
	// evaluator; queries exceeding it are skipped.
	maxNaiveRows = 400000
	// planCacheCapacity sizes the session plan cache.
	planCacheCapacity = 256
)

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 0.05
	}
	if o.Zipf == 0 {
		o.Zipf = 2
	}
	return o
}

// complexity maps the SimpleQueries switch onto the workload knob.
func (o Options) complexity() workload.Complexity {
	if o.SimpleQueries {
		return workload.Simple
	}
	return workload.Complex
}

// Finding is one oracle violation: enough context to triage and to replay.
type Finding struct {
	// Oracle names the check that fired (differential, monotonicity, ...).
	Oracle string
	// Seed replays the harness run that surfaced the finding.
	Seed int64
	// SQL is the statement under test, when one exists.
	SQL string
	// Detail describes the violation.
	Detail string
}

func (f Finding) String() string {
	return fmt.Sprintf("[%s seed=%d] %s\n  %s", f.Oracle, f.Seed, f.SQL, f.Detail)
}

// Harness owns one database instance and the stats/optimizer/executor
// stack under test. It is not safe for concurrent use.
type Harness struct {
	Opts Options
	DB   *storage.Database
	Mgr  *stats.Manager
	Sess *optimizer.Session
	Exec *executor.Executor
	// Reg is a private metrics registry so oracle assertions on counters
	// are not perturbed by other tests sharing obs.Default.
	Reg *obs.Registry

	cache *optimizer.PlanCache // attached to Sess
}

// New builds a harness: generates skewed TPC-D data at the configured
// scale, injects NULLs, and stands up a manager/session/executor with a
// plan cache attached and no statistics built yet.
func New(opts Options) (*Harness, error) {
	opts = opts.withDefaults()
	db, err := datagen.GenerateWithNulls(datagen.Config{Scale: opts.Scale, Z: opts.Zipf, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	h := &Harness{Opts: opts, DB: db, Reg: obs.New()}
	h.Mgr = stats.NewManager(db, histogram.MaxDiff, 0)
	h.Mgr.SetObsRegistry(h.Reg)
	h.Sess = optimizer.NewSession(h.Mgr)
	h.cache = optimizer.NewPlanCache(planCacheCapacity)
	h.Sess.SetPlanCache(h.cache)
	h.Exec = executor.New(db)
	return h, nil
}
