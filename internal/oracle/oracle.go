package oracle

import (
	"fmt"
	"math/rand"
	"sort"

	"autostats/internal/catalog"
	"autostats/internal/datagen"
	"autostats/internal/executor"
	"autostats/internal/histogram"
	"autostats/internal/obs"
	"autostats/internal/optimizer"
	"autostats/internal/query"
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
	// nullPct is the percentage of rows per nullable column whose value is
	// replaced with NULL. TPC-D data contains no NULLs, so the harness
	// injects them into numeric columns that carry no index and no FK role,
	// exercising NULL filter/join/aggregate semantics.
	nullPct = 5
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
	rng   *rand.Rand
}

// New builds a harness: generates skewed TPC-D data at the configured
// scale, injects NULLs, and stands up a manager/session/executor with a
// plan cache attached and no statistics built yet.
func New(opts Options) (*Harness, error) {
	opts = opts.withDefaults()
	db, err := datagen.Generate(datagen.Config{Scale: opts.Scale, Z: opts.Zipf, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	h := &Harness{
		Opts: opts,
		DB:   db,
		Reg:  obs.New(),
		rng:  rand.New(rand.NewSource(opts.Seed)),
	}
	if err := h.injectNulls(); err != nil {
		return nil, err
	}
	h.Mgr = stats.NewManager(db, histogram.MaxDiff, 0)
	h.Mgr.SetObsRegistry(h.Reg)
	h.Sess = optimizer.NewSession(h.Mgr)
	h.cache = optimizer.NewPlanCache(planCacheCapacity)
	h.Sess.SetPlanCache(h.cache)
	h.Exec = executor.New(db)
	return h, nil
}

// nullableColumns lists the numeric columns safe to NULL out: not indexed
// and on neither side of a foreign key, so join keys and seek columns keep
// their integrity and only filter/aggregate paths see NULLs.
func (h *Harness) nullableColumns() map[string][]string {
	schema := h.DB.Schema
	protected := make(map[query.ColumnRef]bool)
	for _, ix := range schema.Indexes {
		protected[query.ColumnRef{Table: ix.Table, Column: ix.Column}] = true
	}
	for _, fk := range schema.ForeignKeys {
		protected[query.ColumnRef{Table: fk.Table, Column: fk.Column}] = true
		protected[query.ColumnRef{Table: fk.RefTable, Column: fk.RefColumn}] = true
	}
	out := make(map[string][]string)
	for _, name := range schema.TableNames() {
		t, err := schema.Table(name)
		if err != nil {
			continue
		}
		for _, c := range t.Columns {
			if c.Type != catalog.Int && c.Type != catalog.Float {
				continue
			}
			if protected[query.ColumnRef{Table: t.Name, Column: c.Name}] {
				continue
			}
			out[t.Name] = append(out[t.Name], c.Name)
		}
	}
	return out
}

// injectNulls replaces nullPct percent of the rows of every nullable
// column with NULL, then resets the modification counters so maintenance
// behavior stays driven by the workload's DML alone.
func (h *Harness) injectNulls() error {
	nullable := h.nullableColumns()
	tables := make([]string, 0, len(nullable))
	for t := range nullable {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, tn := range tables {
		td, err := h.DB.Table(tn)
		if err != nil {
			return err
		}
		var ids []int
		td.Scan(func(id int, _ storage.Row) bool {
			ids = append(ids, id)
			return true
		})
		for _, cn := range nullable[tn] {
			pos := -1
			var typ catalog.Type
			for i, c := range td.Schema.Columns {
				if c.Name == cn {
					pos, typ = i, c.Type
					break
				}
			}
			if pos < 0 {
				continue
			}
			var hit []int
			for _, id := range ids {
				if h.rng.Intn(100) < nullPct {
					hit = append(hit, id)
				}
			}
			if _, err := td.Update(func(storage.View) ([]int, error) { return hit, nil }, pos, catalog.NewNull(typ)); err != nil {
				return err
			}
		}
		td.ResetModCounter(td.ModCounter())
	}
	return nil
}
