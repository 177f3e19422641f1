package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/stats"
)

// RunMNSAWorkloadParallel is RunMNSAWorkload with the per-query MNSA runs
// fanned out to a pool of parallelism workers. Each worker gets its own
// cloned session (sessions are single-goroutine; the statistics manager and
// plan cache they share are concurrency-safe), statistics accumulate in the
// shared manager exactly as in the serial driver, and the per-query results
// are merged deterministically in input order.
//
// parallelism <= 1 delegates to RunMNSAWorkload, so the output is
// byte-identical to the serial driver. With parallelism > 1 the outcome is
// schedule-dependent in the way serial query order already is: a query that
// runs after more statistics exist may stop earlier (its sensitivity extremes
// converge sooner), so the created set can differ from a serial run's —
// typically overlapping heavily — and per-query attribution moves to
// whichever worker first needed a statistic. Every created statistic is still
// drawn from the same candidate space and every query still terminates by the
// same Figure 1 criteria.
func RunMNSAWorkloadParallel(sess *optimizer.Session, queries []*query.Select, cfg Config, parallelism int) (*WorkloadResult, error) {
	return RunMNSAWorkloadParallelCtx(context.Background(), sess, queries, cfg, parallelism)
}

// RunMNSAWorkloadParallelCtx is RunMNSAWorkloadParallel honoring
// cancellation: the dispatcher stops handing out queries the moment ctx is
// done, in-flight per-query analyses stop at their next iteration boundary,
// and the call returns promptly with ctx's error. Statistics already built
// remain (each build is individually atomic), accounting stays consistent,
// and no worker goroutine outlives the call.
func RunMNSAWorkloadParallelCtx(ctx context.Context, sess *optimizer.Session, queries []*query.Select, cfg Config, parallelism int) (*WorkloadResult, error) {
	if parallelism <= 1 {
		return RunMNSAWorkloadCtx(ctx, sess, queries, cfg)
	}
	if parallelism > len(queries) {
		parallelism = len(queries)
	}
	if len(queries) == 0 {
		return &WorkloadResult{}, nil
	}

	mgr := sess.Manager()
	pre := map[stats.ID]bool{}
	for _, id := range mgr.DropListIDs() {
		pre[id] = true
	}

	reg := sess.Obs()
	// tune.worker.busy accumulates per-query work time across all workers;
	// bench harnesses divide its sum by wall-clock × workers to report pool
	// utilization. The gauge records the pool size of the most recent run.
	busy := reg.Timing("tune.worker.busy")
	workerQueries := reg.Counter("tune.worker.queries")
	reg.Gauge("tune.workers").Set(int64(parallelism))
	sp := reg.StartSpan("tune.parallel", func() map[string]any {
		return map[string]any{"queries": len(queries), "workers": parallelism}
	})

	results := make([]*Result, len(queries))
	errs := make([]error, len(queries))
	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := sess.Clone()
			for i := range indices {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue // drain remaining indices without working
				}
				qStart := time.Now()
				results[i], errs[i] = RunMNSACtx(ctx, ws, queries[i], cfg)
				busy.Observe(time.Since(qStart))
				workerQueries.Inc()
			}
		}()
	}
	// The dispatcher stops feeding the moment ctx is done so cancellation
	// returns promptly instead of waiting for every queued query.
dispatch:
	for i := range queries {
		select {
		case indices <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(indices)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		sp.End(func() map[string]any { return map[string]any{"error": err.Error()} })
		return nil, err
	}
	// Report the first failure by input position so reruns see a stable
	// error regardless of goroutine scheduling.
	for i, err := range errs {
		if err != nil {
			sp.End(func() map[string]any { return map[string]any{"error": err.Error()} })
			return nil, fmt.Errorf("core: query %d: %w", i, err)
		}
	}

	mergeStart := time.Now()
	wr := &WorkloadResult{PerQuery: results}
	seen := map[stats.ID]bool{}
	for _, r := range results {
		wr.OptimizerCalls += r.OptimizerCalls
		wr.BuildFailures = append(wr.BuildFailures, r.BuildFailures...)
		for _, id := range r.Created {
			if !seen[id] {
				seen[id] = true
				wr.Created = append(wr.Created, id)
			}
		}
	}
	for _, id := range mgr.DropListIDs() {
		if !pre[id] {
			wr.DropListed = append(wr.DropListed, id)
		}
	}
	reg.Timing("tune.merge.latency").Observe(time.Since(mergeStart))
	sp.End(func() map[string]any {
		return map[string]any{
			"created":         len(wr.Created),
			"drop_listed":     len(wr.DropListed),
			"optimizer_calls": wr.OptimizerCalls,
		}
	})
	return wr, nil
}

// OfflineTuneParallel is OfflineTune with the MNSA creation phase run through
// RunMNSAWorkloadParallel. The Shrinking Set phase stays serial: it is a
// sequence of dependent hide-and-reoptimize probes over shared session state,
// and its optimizer calls are the cheap part once statistics exist.
func OfflineTuneParallel(sess *optimizer.Session, queries []*query.Select, cfg Config, eq Equivalence, parallelism int) (*TuneReport, error) {
	return OfflineTuneParallelCtx(context.Background(), sess, queries, cfg, eq, parallelism)
}

// OfflineTuneParallelCtx is OfflineTuneParallel honoring cancellation in
// both phases.
func OfflineTuneParallelCtx(ctx context.Context, sess *optimizer.Session, queries []*query.Select, cfg Config, eq Equivalence, parallelism int) (*TuneReport, error) {
	if eq == nil {
		eq = ExecutionTree{}
	}
	rep := &TuneReport{}
	wr, err := RunMNSAWorkloadParallelCtx(ctx, sess, queries, cfg, parallelism)
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
