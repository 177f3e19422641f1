package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"autostats"
	"autostats/internal/catalog"
	"autostats/internal/core"
	"autostats/internal/histogram"
	"autostats/internal/obs"
	"autostats/internal/optimizer"
	"autostats/internal/protocol"
	"autostats/internal/query"
	"autostats/internal/sqlparser"
	"autostats/internal/stats"
)

// probeEnv is what a workload hands the generic layer probes: its own
// (tuned, warm) system and the statements it ran. The probes time each
// layer's exported entry points on those statements, so a layer's numbers on
// serve_hot and on tune_offline differ because the statements differ.
type probeEnv struct {
	workload string
	// plan is what the optimizer, selection and build probes run on; exec is
	// what the probes that execute statements run on (wire replay,
	// executor, on-the-fly policy). They are the same except on
	// tune_offline, whose queries are meant to be optimized at scale 20
	// but take seconds each to execute there.
	plan, exec target
	d          *daemon  // running daemon over exec.sys; nil means start one
	wire       []string // exec SELECTs whose results fit a frame
	dml        []string // DML for exec's scale, timed on scratch databases
	// onTheFly is set by churn_onfly, which measures the on-the-fly
	// metrics on its own stream and hands over the tracer it used.
	onTheFly *tracer
}

// target is a system of some scale and the SELECT statements made for it.
type target struct {
	scale   float64
	sys     *autostats.System
	selects []string
}

// Statement counts per probe at the default -seconds; they scale with it.
// Each probe also stops at a deadline, so a slow sandbox shortens the
// sample instead of overrunning the run.
const (
	wireReplayN = 2000
	pathN       = 400
	onTheFlyN   = 400
	dmlProbeN   = 100
	mnsaN       = 320
	// wireBlock is the number of requests per traced or untraced block of
	// the wire replay.
	wireBlock = 25
)

func scaled(n int, o options) int {
	v := int(float64(n) * o.seconds / runSeconds)
	if v < 8 {
		v = 8
	}
	return v
}

func first(xs []string, n int) []string {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

func probeLayers(ctx context.Context, res *result, o options, env probeEnv) error {
	st, err := newStack(env.plan.scale)
	if err != nil {
		return err
	}
	if err := st.mirror(env.plan.sys); err != nil {
		return err
	}
	xst := st
	if env.exec.sys != env.plan.sys {
		if xst, err = newStack(env.exec.scale); err != nil {
			return err
		}
		if err := xst.mirror(env.exec.sys); err != nil {
			return err
		}
	}
	tr := env.onTheFly
	if tr == nil {
		tr = newTracer()
	}
	if err := probeWire(ctx, res, o, env, xst, tr); err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	if err := probeOptimizer(res, o, env.plan.selects, st); err != nil {
		return fmt.Errorf("optimizer probe: %w", err)
	}
	if err := probeExecutor(res, o, env.exec.selects, xst); err != nil {
		return fmt.Errorf("executor probe: %w", err)
	}
	created, err := probeSelection(ctx, res, o, env.plan)
	if err != nil {
		return fmt.Errorf("selection probe: %w", err)
	}
	if err := probeBuilds(res, st, created); err != nil {
		return fmt.Errorf("build probe: %w", err)
	}
	pc := env.plan.sys.PlanCacheStats()
	res.set("optimizer.plancache_hit_rate", pc.HitRate(), int(pc.Hits+pc.Misses))
	if env.onTheFly == nil {
		// Last: it writes to the workload's own system.
		stmts := interleave(first(env.exec.selects, scaled(onTheFlyN, o)/2), env.dml)
		if err := probeOnTheFly(ctx, res, o, env.exec, tr, stmts); err != nil {
			return fmt.Errorf("on-the-fly probe: %w", err)
		}
	}
	if !o.smoke {
		if _, err := tr.write(env.workload); err != nil {
			return err
		}
	}
	return nil
}

// wireRows bounds the result size of statements the in-process workloads
// replay through a daemon: the default frame limit is 4 MiB.
const wireRows = 2000

// wireSample returns the first n statements whose results, on sys as it is
// now, have at most wireRows rows.
func wireSample(sys *autostats.System, sqls []string, n int) ([]string, error) {
	var out []string
	for _, sql := range sqls {
		if len(out) == n {
			break
		}
		r, err := sys.Exec(sql)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", sql, err)
		}
		if len(r.Rows) <= wireRows {
			out = append(out, sql)
		}
	}
	return out, nil
}

func interleave(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	for i := 0; i < len(a) || i < len(b); i++ {
		if i < len(a) {
			out = append(out, a[i])
		}
		if i < len(b) {
			out = append(out, b[i])
		}
	}
	return out
}

// probeWire replays statements one at a time through a daemon with a span
// around the client call and, because the program itself is not instrumented
// by this benchmark, a replay of each layer the request passed through as
// its children: request encode, the facade call (itself split into parse,
// optimize, execute and the remaining render time), response encode and
// response decode. What the children do not cover — socket writes and reads,
// the admission queue, goroutine hand-offs, request decode — is the root's
// self time, reported as server.residual.
func probeWire(ctx context.Context, res *result, o options, env probeEnv, st *stack, tr *tracer) error {
	d := env.d
	if d == nil {
		var err error
		if d, err = startDaemon(env.exec.sys, 1); err != nil {
			return err
		}
		defer d.stop()
		// One low-rate open-loop step gives the in-process workloads a
		// measured generator lateness; they have no ladder.
		sched := poissonSchedule(newRand(o.seed+10), 200, o.share(0.05))
		c := d.clients[0]
		r := openLoop(ctx, 1, len(env.wire), 0, sched, func(ctx context.Context, _, i int) bool {
			_, err := c.Exec(ctx, env.wire[i])
			return err == nil
		})
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.set("loadgen.late_p99_us", quantile(r.lateUS, 0.99), len(r.lateUS))
		res.set("loadgen.rate_at_slo_rps", 0, 0)
		for i := 1; i <= 5; i++ {
			res.set(fmt.Sprintf("loadgen.within_slo_share_r%d", i), 0, 0)
		}
		res.set("server.queue_depth_max", 0, 0)
		res.set("server.rejected_share", 0, 0)
	}
	c := d.clients[0]
	stmts := first(env.wire, scaled(wireReplayN, o))
	schema := env.exec.sys.Schema()
	deadline := time.Now().Add(o.share(0.25))
	opExec := d.srv.Obs().Timing("server.op.exec.latency")
	op0 := opExec.Snapshot()

	// The round trips run back to back in blocks: a block with a root span
	// around every request, then the same block with no spans, so the two
	// medians differ by what tracing costs and not by when they ran. The
	// layer replays follow, as children of the roots. Interleaving replays
	// with requests would let the connection's goroutines go idle between
	// requests and charge their wake-up to the round trip.
	roots := make([]int, 0, len(stmts))
	rts := make([]time.Duration, 0, len(stmts))
	var plain []float64
	for lo := 0; lo < len(stmts) && time.Now().Before(deadline); lo += wireBlock {
		block := stmts[lo:min(lo+wireBlock, len(stmts))]
		for i, sql := range block {
			var execErr error
			root, rt := tr.do("client.roundtrip", 0, lo+i+1, func() { _, execErr = c.Exec(ctx, sql) })
			if execErr != nil {
				return fmt.Errorf("%q: %w", sql, execErr)
			}
			roots = append(roots, root)
			rts = append(rts, rt)
		}
		for _, sql := range block {
			t0 := time.Now()
			if _, err := c.Exec(ctx, sql); err != nil {
				return err
			}
			plain = append(plain, us(time.Since(t0)))
		}
	}
	n := len(roots)
	op1 := opExec.Snapshot()
	res.Attempted += 2 * int64(n)

	var roundtrip, residual, encReq, encResp, decResp, facade, render, perRow, respBytes, bytesPerRow, covered []float64
	for i, sql := range stmts[:n] {
		req, root, rt := i+1, roots[i], rts[i]
		var execErr error
		_, dEncReq := tr.do("protocol.encode_req", root, req, func() {
			_, execErr = protocol.EncodeFrame(&protocol.Request{ID: uint64(req), Op: protocol.OpExec, SQL: sql}, protocol.DefaultMaxFrame)
		})
		var qr *autostats.QueryResult
		fid, dFacade := tr.do("facade.exec", root, req, func() { qr, execErr = env.exec.sys.ExecCtx(ctx, sql) })
		if execErr != nil {
			return fmt.Errorf("%q: %w", sql, execErr)
		}
		var stmt query.Statement
		_, dParse := tr.do("sqlparser.parse", fid, req, func() { stmt, execErr = sqlparser.Parse(schema, sql) })
		q, ok := stmt.(*query.Select)
		if execErr != nil || !ok {
			return fmt.Errorf("%q: not a SELECT (%v)", sql, execErr)
		}
		var plan *optimizer.Plan
		_, dOpt := tr.do("optimizer.optimize", fid, req, func() { plan, execErr = st.sess.Optimize(q) })
		if execErr != nil {
			return execErr
		}
		_, dRun := tr.do("executor.run", fid, req, func() { _, execErr = st.ex.Run(plan) })
		if execErr != nil {
			return execErr
		}
		var frame []byte
		_, dEncResp := tr.do("protocol.encode_resp", root, req, func() {
			frame, execErr = protocol.EncodeFrame(&protocol.Response{ID: uint64(req), Exec: toExecResult(qr)}, protocol.DefaultMaxFrame)
		})
		if execErr != nil {
			return execErr
		}
		_, dDecResp := tr.do("protocol.decode_resp", root, req, func() {
			var payload []byte
			if payload, _, execErr = protocol.DecodeFrame(frame, protocol.DefaultMaxFrame); execErr == nil {
				execErr = json.Unmarshal(payload, new(protocol.Response))
			}
		})
		if execErr != nil {
			return execErr
		}
		rend := dFacade - dParse - dOpt - dRun
		rest := rt - dEncReq - dFacade - dEncResp - dDecResp
		roundtrip = append(roundtrip, us(rt))
		encReq = append(encReq, us(dEncReq))
		encResp = append(encResp, us(dEncResp))
		decResp = append(decResp, us(dDecResp))
		facade = append(facade, us(dFacade))
		render = append(render, us(rend))
		residual = append(residual, us(rest))
		perRow = append(perRow, float64(dEncResp+dDecResp+max(rend, 0))/float64(rt))
		// Coverage: the share of the round trip the layer replays account
		// for without going negative; a residual below zero means the
		// replays cost more than the real request did.
		covered = append(covered, 100*float64(rt-max(-rest, 0))/float64(rt))
		respBytes = append(respBytes, float64(len(frame)))
		if len(qr.Rows) > 0 {
			bytesPerRow = append(bytesPerRow, float64(len(frame))/float64(len(qr.Rows)))
		}
	}
	opN := op1.Count - op0.Count
	opMean := us(op1.Sum-op0.Sum) / float64(opN)

	res.set("client.roundtrip_us_p50", median(roundtrip), n)
	res.set("server.residual_us_p50", median(residual), n)
	res.set("server.op_exec_us_mean", opMean, int(opN))
	res.set("protocol.encode_req_us_p50", median(encReq), n)
	res.set("protocol.encode_resp_us_p50", median(encResp), n)
	res.set("protocol.decode_resp_us_p50", median(decResp), n)
	res.set("protocol.resp_bytes_p50", median(respBytes), n)
	res.set("protocol.resp_bytes_per_row", median(bytesPerRow), len(bytesPerRow))
	res.set("facade.exec_us_p50", median(facade), n)
	res.set("facade.render_us_p50", median(render), n)
	res.set("trace.per_row_share", median(perRow), n)
	res.set("trace.coverage_pct", median(covered), n)
	res.set("trace.overhead_pct", 100*(median(roundtrip)-median(plain))/median(plain), n)

	// Response encode allocations, single-threaded on real results.
	sample := first(stmts[:n], 64)
	results := make([]*protocol.Response, len(sample))
	for i, sql := range sample {
		qr, err := env.exec.sys.ExecCtx(ctx, sql)
		if err != nil {
			return err
		}
		results[i] = &protocol.Response{ID: uint64(i), Exec: toExecResult(qr)}
	}
	k := 0
	res.set("protocol.encode_resp_allocs", allocsPer(len(results), func() {
		protocol.EncodeFrame(results[k], protocol.DefaultMaxFrame)
		k++
	}), len(results))
	return nil
}

// probeOptimizer times the parser and the optimizer directly: with a warm
// plan cache (hit: lookup and rebind), with none (miss: full enumeration),
// and the histogram selectivity primitives under the estimator.
func probeOptimizer(res *result, o options, selects []string, st *stack) error {
	sqls := first(selects, scaled(pathN, o))
	schema := st.db.Schema
	var parse []float64
	for _, sql := range sqls {
		t0 := time.Now()
		if _, err := sqlparser.Parse(schema, sql); err != nil {
			return err
		}
		parse = append(parse, us(time.Since(t0)))
	}
	k := 0
	parseAllocs := allocsPer(len(sqls), func() { sqlparser.Parse(schema, sqls[k]); k++ })
	res.set("sqlparser.parse_us_p50", median(parse), len(parse))
	res.set("sqlparser.parse_allocs", parseAllocs, len(sqls))

	qs, err := st.parseSelects(sqls)
	if err != nil {
		return err
	}
	for _, q := range qs { // warm the cache
		if _, err := st.sess.Optimize(q); err != nil {
			return err
		}
	}
	var hit []float64
	for _, q := range qs {
		t0 := time.Now()
		if _, err := st.sess.Optimize(q); err != nil {
			return err
		}
		hit = append(hit, us(time.Since(t0)))
	}
	k = 0
	hitAllocs := allocsPer(len(qs), func() { st.sess.Optimize(qs[k]); k++ })
	res.set("optimizer.hit_us_p50", median(hit), len(hit))
	res.set("optimizer.hit_allocs", hitAllocs, len(qs))

	cold := optimizer.NewSession(st.mgr)
	var miss []float64
	for _, q := range qs {
		t0 := time.Now()
		if _, err := cold.Optimize(q); err != nil {
			return err
		}
		miss = append(miss, us(time.Since(t0)))
	}
	k = 0
	missAllocs := allocsPer(len(qs), func() { cold.Optimize(qs[k]); k++ })
	res.set("optimizer.miss_us_p50", median(miss), len(miss))
	res.set("optimizer.miss_us_p95", quantile(miss, 0.95), len(miss))
	res.set("optimizer.miss_allocs", missAllocs, len(qs))

	selNS, selN, err := probeSelectivity(st)
	if err != nil {
		return err
	}
	res.set("histogram.selectivity_ns", selNS, selN)
	return nil
}

// probeExecutor times Executor.Run on the plans of the workload's SELECTs.
func probeExecutor(res *result, o options, selects []string, st *stack) error {
	qs, err := st.parseSelects(first(selects, scaled(pathN, o)))
	if err != nil {
		return err
	}
	deadline := time.Now().Add(o.share(0.1))
	var run, rows, cost []float64
	var plans []*optimizer.Plan
	for _, q := range qs {
		if time.Now().After(deadline) && len(run) >= 8 {
			break
		}
		p, err := st.sess.Optimize(q)
		if err != nil {
			return err
		}
		t0 := time.Now()
		r, err := st.ex.Run(p)
		if err != nil {
			return err
		}
		run = append(run, us(time.Since(t0)))
		rows = append(rows, float64(len(r.Rows)))
		cost = append(cost, r.Cost)
		plans = append(plans, p)
	}
	k := 0
	runAllocs := allocsPer(min(len(plans), 32), func() { st.ex.Run(plans[k]); k++ })
	res.set("executor.run_us_p50", median(run), len(run))
	res.set("executor.rows_per_op", sum(rows)/float64(len(rows)), len(rows))
	res.set("executor.cost_units_per_op", sum(cost)/float64(len(cost)), len(cost))
	res.set("executor.run_allocs", runAllocs, min(len(plans), 32))
	return nil
}

// probeSelectivity times SelectivityLess and SelectivityEq on the leading
// histogram of every statistic, over values of its own column.
func probeSelectivity(st *stack) (float64, int, error) {
	calls := 0
	var total time.Duration
	for _, s := range st.mgr.All() {
		td, err := st.db.Table(s.Table)
		if err != nil {
			return 0, 0, err
		}
		vals, err := td.ColumnValues(s.LeadingColumn())
		if err != nil {
			return 0, 0, err
		}
		if len(vals) == 0 {
			continue
		}
		stride := len(vals)/256 + 1
		h := s.Data.Leading
		t0 := time.Now()
		for i := 0; i < len(vals); i += stride {
			h.SelectivityLess(vals[i], false)
			h.SelectivityEq(vals[i])
			calls += 2
		}
		total += time.Since(t0)
	}
	if calls == 0 {
		return 0, 0, nil
	}
	return float64(total.Nanoseconds()) / float64(calls), calls, nil
}

// probeSelection runs the two selection algorithms on a fresh stack holding
// no statistics: MNSA over the workload's queries, then Shrinking Set. On
// the serve workloads this is the pre-tuning their set-up pays for.
func probeSelection(ctx context.Context, res *result, o options, t target) ([]stats.ID, error) {
	st, err := newStack(t.scale)
	if err != nil {
		return nil, err
	}
	qs, err := st.parseSelects(first(t.selects, scaled(mnsaN, o)))
	if err != nil {
		return nil, err
	}
	st.sess.SetPlanCache(nil)
	t0 := time.Now()
	wr, err := core.RunMNSAWorkloadCtx(ctx, st.sess, qs, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	mnsa := time.Since(t0)
	t0 = time.Now()
	sr, err := core.ShrinkingSetCtx(ctx, st.sess, qs, nil, core.ExecutionTree{})
	if err != nil {
		return nil, err
	}
	shrink := time.Since(t0)
	res.set("core.mnsa_s", mnsa.Seconds(), len(qs))
	res.set("core.shrink_s", shrink.Seconds(), len(qs))
	res.set("core.optimizer_calls", float64(wr.OptimizerCalls+sr.OptimizerCalls), 1)
	res.set("core.stats_created", float64(len(wr.Created)), 1)
	res.set("core.essential_size", float64(len(sr.Kept)), 1)
	return wr.Created, nil
}

// probeBuilds rebuilds every statistic MNSA created, one at a time, through
// each path the repo has for it, over the same table contents: the
// manager's Create (default configuration), bare column extraction, and the
// three histogram constructors — one-shot BuildMulti, four partition
// partials merged, and the streaming block pipeline — plus the incremental
// fold of a 1 % delta.
func probeBuilds(res *result, st *stack, ids []stats.ID) error {
	fresh := stackOver(st.db)
	var build, extract, oneShot, merged, streamed, foldUS []float64
	var cost float64
	foldRows := 0
	for _, id := range ids {
		s := st.mgr.Get(id)
		if s == nil {
			// A statistic the selection probe created but the workload's
			// own tuning did not; build it on the mirror as well.
			var err error
			if s, _, err = st.mgr.Ensure(id.Table(), idColumns(id)); err != nil {
				return err
			}
		}
		t0 := time.Now()
		b, err := fresh.mgr.Create(s.Table, s.Columns)
		if err != nil {
			return err
		}
		build = append(build, ms(time.Since(t0)))
		cost += b.BuildCost

		td, err := st.db.Table(s.Table)
		if err != nil {
			return err
		}
		t0 = time.Now()
		tuples, err := td.MultiColumnValues(s.Columns)
		if err != nil {
			return err
		}
		extract = append(extract, ms(time.Since(t0)))

		t0 = time.Now()
		mc, err := histogram.BuildMulti(histogram.MaxDiff, s.Columns, tuples, 0)
		if err != nil {
			return err
		}
		oneShot = append(oneShot, ms(time.Since(t0)))

		t0 = time.Now()
		parts := make([]*histogram.Partial, 0, 4)
		for _, chunk := range histogram.SplitTuples(tuples, 4) {
			p, err := histogram.BuildPartial(s.Columns, chunk)
			if err != nil {
				return err
			}
			parts = append(parts, p)
		}
		if _, err := histogram.MergePartials(histogram.MaxDiff, s.Columns, parts, 0); err != nil {
			return err
		}
		merged = append(merged, ms(time.Since(t0)))

		t0 = time.Now()
		pb, err := histogram.NewPartialBuilder(s.Columns)
		if err != nil {
			return err
		}
		it, err := td.OpenBlockIter(s.Columns, 0)
		if err != nil {
			return err
		}
		for {
			block, ok := it.Next()
			if !ok {
				break
			}
			if err := pb.AddBlock(block); err != nil {
				it.Close()
				return err
			}
		}
		it.Close()
		if _, err := histogram.MergePartials(histogram.MaxDiff, s.Columns, []*histogram.Partial{pb.Finish()}, 0); err != nil {
			return err
		}
		streamed = append(streamed, ms(time.Since(t0)))

		if n := len(tuples) / 100; n > 0 {
			delta := make([]catalog.Datum, n)
			for i := range delta {
				delta[i] = tuples[i*100][0]
			}
			t0 = time.Now()
			histogram.FoldMulti(mc, delta, delta)
			foldUS = append(foldUS, us(time.Since(t0)))
			foldRows += 2 * n
		}
	}
	res.set("stats.build_s_total", sum(build)/1e3, len(build))
	res.set("stats.build_ms_p50", median(build), len(build))
	res.set("stats.build_cost_units", cost, len(build))
	res.set("storage.extract_ms_total", sum(extract), len(extract))
	res.set("histogram.build_ms_total", sum(oneShot), len(oneShot))
	res.set("histogram.partial_merge_ms_total", sum(merged), len(merged))
	res.set("histogram.stream_ms_total", sum(streamed), len(streamed))
	fold := 0.0
	if foldRows > 0 {
		fold = sum(foldUS) / float64(foldRows)
	}
	res.set("histogram.fold_us_per_row", fold, foldRows)
	return nil
}

// idColumns recovers the column list from a canonical "table(c1,c2)" ID.
func idColumns(id stats.ID) []string {
	s := strings.TrimSuffix(string(id), ")")
	return strings.Split(s[len(id.Table())+1:], ",")
}

// probeOnTheFly drives the on-the-fly policy (§6) over stmts on the
// workload's own system, with a span per statement by kind, and replays the
// DML alone on a scratch stack to time the storage layer by itself.
func probeOnTheFly(ctx context.Context, res *result, o options, t target, tr *tracer, stmts []string) error {
	scratch, err := newStack(t.scale)
	if err != nil {
		return err
	}
	before := markPolicy()
	deadline := time.Now().Add(o.share(0.15))
	var sel, dml, store []float64
	for i, sql := range stmts {
		if time.Now().After(deadline) && len(sel) >= 8 && len(dml) >= 8 {
			stmts = stmts[:i]
			break
		}
		var err error
		_, d := tr.do(policySpan(sql), 0, -(i + 1), func() { _, err = t.sys.ProcessStatementCtx(ctx, sql) })
		if err != nil {
			return fmt.Errorf("%q: %w", sql, err)
		}
		if isSelect(sql) {
			sel = append(sel, us(d))
			continue
		}
		dml = append(dml, us(d))
		stmt, err := sqlparser.Parse(scratch.db.Schema, sql)
		if err != nil {
			return err
		}
		_, d = tr.do("storage.dml", 0, -(i + 1), func() { _, err = scratch.ex.RunStatement(scratch.sess, stmt) })
		if err != nil {
			return fmt.Errorf("scratch %q: %w", sql, err)
		}
		store = append(store, us(d))
	}
	res.Attempted += int64(len(stmts))
	res.set("core.select_us_p50", median(sel), len(sel))
	res.set("core.dml_us_p50", median(dml), len(dml))
	res.set("storage.dml_us_p50", median(store), len(store))
	before.setDeltas(res)
	return nil
}

// policyMark is a reading of the counters the on-the-fly policy and the
// maintenance passes move. Systems built by the facade report to the
// process registry, obs.Default.
type policyMark struct {
	mnsaRuns, refreshes, fullScans int64
	maintenance                    time.Duration
}

func markPolicy() policyMark {
	reg := obs.Default
	return policyMark{
		mnsaRuns:    reg.Counter("mnsa.runs").Value(),
		refreshes:   reg.Counter("stats.refreshes").Value(),
		fullScans:   reg.Counter("stats.build.full_scans").Value(),
		maintenance: reg.Timing("stats.maintenance.latency").Snapshot().Sum,
	}
}

// setDeltas reports what moved since the mark.
func (m policyMark) setDeltas(res *result) {
	now := markPolicy()
	res.set("core.mnsa_runs", float64(now.mnsaRuns-m.mnsaRuns), 1)
	res.set("stats.refreshes", float64(now.refreshes-m.refreshes), 1)
	res.set("stats.full_scans", float64(now.fullScans-m.fullScans), 1)
	res.set("stats.maintenance_ms_total", ms(now.maintenance-m.maintenance), 1)
}

// policySpan names the span around one ProcessStatementCtx call.
func policySpan(sql string) string {
	if isSelect(sql) {
		return "core.process_select"
	}
	return "core.process_dml"
}

// setQualityNA fills the plan-quality metrics on the workloads that have no
// quality phase. They are percentages and ratios, not timings.
func setQualityNA(res *result) {
	for _, name := range []string{"core.exec_cost_increase_pct", "core.creation_cost_reduction_pct",
		"optimizer.nostats_cost_increase_pct", "optimizer.root_qerror_p50", "optimizer.root_qerror_p95"} {
		res.set(name, 0, 0)
	}
}
