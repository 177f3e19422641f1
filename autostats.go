// Package autostats is an automated statistics-management toolkit for
// cost-based query optimizers, reproducing Chaudhuri & Narasayya,
// "Automating Statistics Management for Query Optimizers" (ICDE 2000).
//
// It bundles a complete substrate — an in-memory relational engine with a
// histogram-driven cost-based optimizer, a skewed TPC-D data generator and a
// Rags-like workload generator — with the paper's contribution: algorithms
// that decide WHICH statistics an optimizer actually needs.
//
//   - Candidate statistics (§7.1): prune the exponential space of
//     syntactically relevant single- and multi-column statistics.
//   - MNSA (§4): magic number sensitivity analysis — decide whether more
//     statistics can matter without building them, by re-optimizing with
//     missing-statistics selectivities pinned to ε and 1−ε.
//   - MNSA/D (§5.1): interleave creation with non-essential detection.
//   - Shrinking Set (§5.2): reduce to a guaranteed essential set.
//   - Policies (§6): on-the-fly auto-tuning, offline tuning, drop-lists,
//     and SQL Server 7.0-style update/drop maintenance.
//
// Quickstart:
//
//	sys, _ := autostats.GenerateTPCD(autostats.TPCDOptions{Skew: 2})
//	rep, _ := sys.TuneWorkloadCtx(ctx, []string{
//	    "SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 45",
//	}, autostats.TuneOptions{})
//	fmt.Println(rep.Created)
package autostats

import (
	"context"
	"math/bits"
	"strings"
	"sync"

	"autostats/internal/catalog"
	"autostats/internal/core"
	"autostats/internal/datagen"
	"autostats/internal/executor"
	"autostats/internal/histogram"
	"autostats/internal/obs"
	"autostats/internal/optimizer"
	"autostats/internal/protocol"
	"autostats/internal/query"
	"autostats/internal/sqlparser"
	"autostats/internal/stats"
	"autostats/internal/storage"
)

// System is a database with its statistics manager, optimizer and executor —
// the unit everything else operates on, and the unit the stats-as-a-service
// server (internal/server) isolates per tenant.
//
// Concurrency model (the server's default usage pattern):
//
//   - Every entry point uses one optimizer session, which is safe for
//     concurrent use: a tuner's what-if probes are arguments of its own
//     calls, not state of the session.
//   - Exec, Explain, Statistics and PlanCacheStats may be called from any
//     number of goroutines at once, over the concurrency-safe statistics
//     manager, shared plan cache and internally locked storage layer.
//   - TuneQuery, TuneWorkloadCtx, ProcessStatementCtx and RunMaintenance are
//     serialized on an internal mutex (they mutate statistics and policy
//     state); concurrent callers queue. Each runs on the calling goroutine —
//     MNSA is a sequential build → re-optimize loop — while Exec and Explain
//     keep being served beside it.
//   - SetPlanCacheCapacity follows the usual configure-then-serve server
//     pattern: call it before the System is shared across goroutines, not
//     while requests are in flight.
//
// A statistic that cannot be built never fails a statement or a tuning run:
// the affected predicates are planned on the paper's default magic numbers
// (§4), and the failure is reported (QueryResult.Degraded,
// TuneReport.BuildFailures, MaintenanceReport.RefreshFailures). Only
// cancellation of the caller's context aborts.
type System struct {
	db    *storage.Database
	mgr   *stats.Manager
	sess  *optimizer.Session
	ex    *executor.Executor
	auto  *core.AutoManager
	cache *optimizer.PlanCache

	// mu serializes the mutating entry points: tuning, the on-the-fly
	// policy, and maintenance. The read-mostly statement path (Exec,
	// Explain) does not take it.
	mu sync.Mutex
}

// DefaultPlanCacheCapacity is the plan cache size a new System starts with.
const DefaultPlanCacheCapacity = 1024

// TPCDOptions configures the skewed TPC-D generator ([17] in the paper).
type TPCDOptions struct {
	// Scale multiplies base row counts (1.0 ≈ 8.7k rows total). 0 means 1.
	Scale float64
	// Skew is the Zipfian z parameter for every column, 0 (uniform) to 4.
	Skew float64
	// Mix assigns each column a random skew in [0,4] (TPCD_MIX); overrides
	// Skew.
	Mix bool
	// Seed defaults to 42.
	Seed int64
	// HistogramBuckets caps histogram buckets (default 200).
	HistogramBuckets int
}

// GenerateTPCD creates a fully loaded skewed TPC-D system.
func GenerateTPCD(opts TPCDOptions) (*System, error) {
	if opts.Seed == 0 {
		opts.Seed = 42
	}
	db, err := datagen.Generate(datagen.Config{
		Scale: opts.Scale, Z: opts.Skew, Mix: opts.Mix, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	mgr := stats.NewManager(db, histogram.MaxDiff, opts.HistogramBuckets)
	sess := optimizer.NewSession(mgr)
	cache := optimizer.NewPlanCache(DefaultPlanCacheCapacity)
	sess.SetPlanCache(cache)
	ex := executor.New(db)
	return &System{
		db: db, mgr: mgr, sess: sess, ex: ex,
		auto:  core.NewAutoManager(sess, ex),
		cache: cache,
	}, nil
}

// SetPlanCacheCapacity replaces the plan cache with one holding up to n
// plans; n <= 0 disables plan caching. Existing cached plans are discarded.
// Configuration method: do not call while statements are being served.
func (s *System) SetPlanCacheCapacity(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache = optimizer.NewPlanCache(n)
	s.sess.SetPlanCache(s.cache)
}

// PlanCacheStats reports plan cache effectiveness counters (all zero when
// caching is disabled).
func (s *System) PlanCacheStats() optimizer.PlanCacheStats {
	return s.cache.Stats()
}

// Obs returns the observability registry the system's components report to
// (obs.Default unless redirected on the statistics manager before sessions
// were created). Use it to read counters, take snapshots, or register
// tracers.
func (s *System) Obs() *obs.Registry { return s.sess.Obs() }

// Schema returns the underlying schema (read-only use intended).
func (s *System) Schema() *catalog.Schema { return s.db.Schema }

// QueryResult is the outcome of executing one SQL statement. It is the wire's
// exec answer (see protocol.ExecResult for the fields), so the server sends
// what Exec returns without a copy.
type QueryResult = protocol.ExecResult

// Exec parses, optimizes and executes one SQL statement. Safe for concurrent
// use: the optimizer session, its plan cache and the statistics manager are
// concurrency-safe; DML serializes inside the storage layer's per-table
// locks, each statement matching its rows and writing them under one write
// lock.
func (s *System) Exec(sql string) (*QueryResult, error) {
	return s.ExecCtx(context.Background(), sql)
}

// ExecCtx is Exec honoring ctx at phase boundaries: a canceled or expired
// context stops the statement before parse, before optimization and before
// execution. Phases already under way run to completion — the storage layer's
// per-table critical sections are short — so cancellation never leaves a
// half-applied statement. This is the deadline hook the stats-as-a-service
// server uses for its per-request timeouts.
func (s *System) ExecCtx(ctx context.Context, sql string) (*QueryResult, error) {
	stmt, err := sqlparser.Parse(s.db.Schema, sql)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if q, ok := stmt.(*query.Select); ok {
		plan, err := s.sess.Optimize(q)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := s.ex.Run(plan)
		if err != nil {
			return nil, err
		}
		out := renderResult(res)
		out.EstimatedCost = plan.Cost()
		out.Plan = plan.Format()
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := s.ex.RunStatement(s.sess, stmt)
	if err != nil {
		return nil, err
	}
	return renderResult(res), nil
}

// renderResult copies an executor result into the facade's shape: cost,
// affected count and — for a SELECT, the only statement with output columns —
// the columns in position order and every value rendered as a SQL literal.
// The cells cost one buffer, not one string each: all of them are rendered
// into one text, every cell is a substring of it, and the cells sit in one
// []string of which each row is a capped window.
func renderResult(res *executor.Result) *QueryResult {
	out := &QueryResult{ExecCost: res.Cost, Affected: res.Affected}
	if res.Cols == nil {
		return out
	}
	out.Columns = make([]string, len(res.Cols))
	for name, pos := range res.Cols {
		if pos >= 0 && pos < len(out.Columns) {
			out.Columns[pos] = name
		}
	}
	// Bound the text's size before rendering it, so that it is allocated once.
	ncells, size := 0, 0
	for _, r := range res.Rows {
		ncells += len(r)
		for _, d := range r {
			switch {
			case d.Null:
				size += len("NULL")
			case d.T == catalog.String: // the bytes, two quotes, each inner quote doubled
				size += len(d.S) + 2 + strings.Count(d.S, "'")
			case d.T == catalog.Float:
				size += 24 // strconv's longest shortest-form float64
			default: // Int, Date: "DATE ", a sign, one digit and ⌊bits·log10(2)⌋ more
				size += 7 + bits.Len64(uint64(d.I))*1233>>12
			}
		}
	}
	// Text and cells are allocated a chunk at a time, at most chunk bytes
	// each: one chunk of each, sized from the counts above, for any ordinary
	// result; MiB pieces filled to the brim for a huge one (a whole table read
	// in-process), which then needs no contiguous block proportional to its
	// size and does not hold what the text estimate overshot by.
	// Builder.Grow makes room for a chunk at once: no write into it moves it,
	// and a cell can be cut out of it as soon as it is written. The cells and
	// rows cut from a finished chunk are what keep it alive.
	const chunk = 1 << 20
	const chunkCells = chunk / 16 // a string header is 16 bytes
	var text strings.Builder
	cells := make([]string, 0, min(ncells, chunkCells))
	lit := make([]byte, 0, 64) // one literal at a time
	out.Rows = make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		if cap(cells)-len(cells) < len(r) {
			cells = make([]string, 0, max(len(r), min(ncells, chunkCells)))
		}
		ncells -= len(r) // cells still to come
		for _, d := range r {
			lit = d.AppendString(lit[:0])
			if text.Cap()-text.Len() < len(lit) {
				text.Reset()
				text.Grow(max(len(lit), min(size, chunk)))
			}
			size -= len(lit) // still an upper bound on what is left to write
			start := text.Len()
			text.Write(lit)
			cells = append(cells, text.String()[start:])
		}
		out.Rows[i] = cells[len(cells)-len(r) : len(cells) : len(cells)]
	}
	return out
}

// Explain returns the chosen plan for a SELECT without executing it,
// honoring ctx at phase boundaries (see ExecCtx). Safe for concurrent use
// (see Exec).
func (s *System) Explain(ctx context.Context, sql string) (string, error) {
	q, err := sqlparser.ParseSelect(s.db.Schema, sql)
	if err != nil {
		return "", err
	}
	if err := ctx.Err(); err != nil {
		return "", err
	}
	plan, err := s.sess.Optimize(q)
	if err != nil {
		return "", err
	}
	return plan.Format(), nil
}

// StatInfo describes one existing statistic. It is the wire's stats row
// (protocol.StatRow).
type StatInfo = protocol.StatRow

// Statistics lists all existing statistics in ID order.
func (s *System) Statistics() []StatInfo {
	var out []StatInfo
	for _, st := range s.mgr.All() {
		out = append(out, StatInfo{
			ID:         string(st.ID),
			Table:      st.Table,
			Columns:    append([]string(nil), st.Columns...),
			Rows:       st.Data.Rows,
			Distinct:   st.Data.Leading.Distinct,
			Buckets:    len(st.Data.Leading.Buckets),
			InDropList: st.InDropList,
			Updates:    st.UpdateCount,
		})
	}
	return out
}

// CreateStatistic builds a statistic on table(columns...) explicitly.
func (s *System) CreateStatistic(table string, columns ...string) error {
	_, err := s.mgr.Create(table, columns)
	return err
}

// DropStatistic physically removes a statistic.
func (s *System) DropStatistic(table string, columns ...string) bool {
	return s.mgr.Drop(stats.MakeID(table, columns))
}

// CreateIndexedColumnStats builds single-column statistics on every indexed
// column — the "tuned database" baseline of the paper's §1 experiment.
func (s *System) CreateIndexedColumnStats() error {
	for _, ix := range s.db.Schema.Indexes {
		if _, err := s.mgr.Create(ix.Table, []string{ix.Column}); err != nil {
			return err
		}
	}
	return nil
}
