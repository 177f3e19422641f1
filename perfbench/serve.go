package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autostats"
	"autostats/internal/oracle"
	"autostats/internal/protocol"
	"autostats/internal/sqlparser"
)

// serveSizing fixes one serve workload. The ladder is absolute and frozen:
// it was calibrated once (see README) as 0.3, 0.6, 0.8, 1.2 and 1.6 times
// the rate at which p95 crossed the limit, and later changes are judged
// against these same rates.
type serveSizing struct {
	name     string
	scale    float64
	distinct int // distinct statements; the stream cycles through them
	stream   func(*rand.Rand, dims, int) []string
	sloMS    float64 // p95 limit of the ladder
	ladder   [5]float64
	// window is the length of the windows the closed loop is cut into
	// (see quietWindows): a few hundred requests at least.
	window time.Duration
}

var (
	serveHot = serveSizing{name: "serve_hot", scale: 2, distinct: 4096, stream: serveHotStream,
		sloMS: 10, ladder: [5]float64{3000, 6000, 8000, 12000, 16000}, window: 250 * time.Millisecond}
	serveWide = serveSizing{name: "serve_wide", scale: 2, distinct: 384, stream: serveWideStream,
		sloMS: 50, ladder: [5]float64{90, 180, 240, 360, 480}, window: 500 * time.Millisecond}
)

func (sz serveSizing) smoke() serveSizing {
	sz.scale, sz.distinct, sz.window = 0.2, 48, 100*time.Millisecond
	for i := range sz.ladder {
		sz.ladder[i] /= 8
	}
	return sz
}

// pretuneN statements of the stream are handed to TuneWorkload during
// set-up: every template occurs among them many times over.
const pretuneN = 64

// oracleN statements per run are checked against the naive evaluator;
// oracleJoins bounds how many of them may be joins, which the evaluator
// runs as nested loops over every pair.
const (
	oracleN     = 64
	oracleJoins = 4
)

// serveEnv is a running daemon with its clients, stream and references.
type serveEnv struct {
	sz     serveSizing
	sys    *autostats.System
	d      *daemon
	stream []string
	refs   []rowsDigest
	// wrong counts responses that differ from their reference, errs the
	// requests that were refused or lost; firstErr keeps one message.
	wrong, errs atomic.Int64
	firstErr    atomic.Pointer[string]
}

func setupServe(sz serveSizing, seed int64) (*serveEnv, error) {
	sys, err := newSystem(sz.scale)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{sz: sz, sys: sys}
	e.stream = sz.stream(newRand(seed), dimsAt(sz.scale), sz.distinct)
	n := pretuneN
	if n > len(e.stream) {
		n = len(e.stream)
	}
	if _, err := sys.TuneWorkloadCtx(context.Background(), e.stream[:n], autostats.TuneOptions{}); err != nil {
		return nil, fmt.Errorf("pre-tune: %w", err)
	}
	e.refs = make([]rowsDigest, len(e.stream))
	for i, sql := range e.stream {
		r, err := sys.Exec(sql)
		if err != nil {
			return nil, fmt.Errorf("reference %q: %w", sql, err)
		}
		e.refs[i] = digestRows(r.Rows)
	}
	if e.d, err = startDaemon(sys, conns); err != nil {
		return nil, err
	}
	// Warm-up: every distinct statement once through the wire, checked.
	var wg sync.WaitGroup
	var bad atomic.Int64
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(e.stream); i += conns {
				if !e.exec(context.Background(), c, i) {
					bad.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if bad.Load() > 0 {
		e.d.stop()
		return nil, fmt.Errorf("warm-up: %d of %d statements failed or returned a wrong result", bad.Load(), len(e.stream))
	}
	return e, nil
}

// exec is the load generator's execFn: one request, checked against the
// in-process reference by row count and order-insensitive checksum.
func (e *serveEnv) exec(ctx context.Context, conn, i int) bool {
	res, err := e.d.clients[conn].Exec(ctx, e.stream[i])
	if err != nil {
		e.errs.Add(1)
		msg := err.Error()
		e.firstErr.CompareAndSwap(nil, &msg)
		return false
	}
	if digestRows(res.Rows) != e.refs[i] {
		e.wrong.Add(1)
		return false
	}
	return true
}

func runServe(sz serveSizing, o options) (*result, error) {
	if o.smoke {
		sz = sz.smoke()
	}
	res := newResult(sz.name, o.trace, o.seed, o.seconds)
	var e *serveEnv
	setups, err := repeatSetup(o, func() (err error) {
		e, err = setupServe(sz, o.seed)
		return err
	}, func() {
		if e != nil {
			e.d.stop()
			e = nil
		}
	})
	if err != nil {
		return nil, err
	}
	defer func() { e.d.stop() }()

	// Before anything is timed, and before the traced run's last probe
	// writes to the database.
	if err := e.oracleCheck(res, o.seed); err != nil {
		return nil, err
	}

	ctx := context.Background()
	if !o.trace {
		// One closed loop for the whole run: conns callers, each waiting
		// for its reply before sending the next, so no request waits behind
		// another in the admission queue and the latency is service time.
		before := markMem()
		total := o.share(1)
		closed := closedLoop(ctx, conns, len(e.stream), total, e.exec)
		after := markMem()
		res.Attempted = closed.attempted
		res.set("setup_s", median(setups), len(setups))
		q := quietWindows(closed.samples, sz.window, total)
		res.set("op_p50_ms", q.p50ms, q.windows)
		res.set("op_p95_ms", q.p95ms, q.windows)
		res.set("ops_per_s", q.perSec, q.windows)
		res.set("alloc_kb_per_op", float64(after.bytes-before.bytes)/1024/float64(res.Attempted), int(res.Attempted))
	} else {
		if err := traceServe(ctx, e, res, o); err != nil {
			return nil, err
		}
	}
	res.check("every response equals the in-process result", e.wrong.Load() == 0,
		fmt.Sprintf("%d wrong of %d", e.wrong.Load(), res.Attempted))
	// The ladder's upper steps overload the server on purpose: a request it
	// refuses or drops there misses the SLO, which is the designed outcome
	// and not a malfunction. In the closed loop nothing may be lost.
	res.Failed = e.wrong.Load()
	if msg := e.firstErr.Load(); msg != nil {
		if o.trace {
			res.Notes = append(res.Notes, fmt.Sprintf("ladder: %d requests refused or lost, counted as SLO misses (first: %s)", e.errs.Load(), *msg))
		} else {
			res.Failed += e.errs.Load()
			res.check("no request refused or lost", false, *msg)
		}
	}
	if !o.trace {
		res.set("peak_rss_mb", peakRSSMB(), 1)
	}
	return res, nil
}

// oracleCheck compares a seeded sample of the stream's in-process results
// with oracle.NaiveExecute, an evaluator that shares no planner or operator
// code with the engine, on a database generated afresh.
func (e *serveEnv) oracleCheck(res *result, seed int64) error {
	st, err := newStack(e.sz.scale)
	if err != nil {
		return err
	}
	rng := newRand(seed + 2)
	checked, joins, bad := 0, 0, 0
	var first string
	for _, i := range rng.Perm(len(e.stream)) {
		if checked == oracleN {
			break
		}
		sql := e.stream[i]
		q, err := sqlparser.ParseSelect(st.db.Schema, sql)
		if err != nil {
			return err
		}
		if len(q.Tables) > 1 {
			if joins == oracleJoins {
				continue
			}
			joins++
		}
		want, err := oracle.NaiveExecute(st.db, q, 0)
		if err != nil {
			return fmt.Errorf("naive %q: %w", sql, err)
		}
		got, err := e.sys.Exec(sql)
		if err != nil {
			return err
		}
		checked++
		if d := diffNaive(got, want); d != "" {
			bad++
			if first == "" {
				first = sql + ": " + d
			}
		}
	}
	res.check("sampled results equal oracle.NaiveExecute", bad == 0 && checked > 0,
		fmt.Sprintf("%d checked, %d differ %s", checked, bad, first))
	return nil
}

// diffNaive compares a facade result with the naive evaluator's as
// multisets of rows, matching columns by name.
func diffNaive(got *autostats.QueryResult, want *oracle.NaiveResult) string {
	if len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("rows %d, reference %d", len(got.Rows), len(want.Rows))
	}
	names := append([]string(nil), got.Columns...)
	sort.Strings(names)
	pos := make(map[string]int, len(got.Columns))
	for i, c := range got.Columns {
		pos[c] = i
	}
	a := make([][]string, len(got.Rows))
	b := make([][]string, len(want.Rows))
	for i := range got.Rows {
		a[i] = make([]string, len(names))
		b[i] = make([]string, len(names))
		for j, c := range names {
			p, ok := want.Cols[c]
			if !ok {
				return "reference lacks column " + c
			}
			a[i][j] = got.Rows[i][pos[c]]
			b[i][j] = want.Rows[i][p].String()
		}
	}
	if digestRows(a) != digestRows(b) {
		return "row contents differ"
	}
	return ""
}

// traceServe is the -trace 1 run of a serve workload: the open-loop ladder,
// then the generic layer probes over the workload's own statements.
func traceServe(ctx context.Context, e *serveEnv, res *result, o options) error {
	sz := e.sz
	reg := e.d.srv.Obs()
	step := o.share(0.1)
	rejected0 := reg.Counter("server.requests.rejected_overload").Value() +
		reg.Counter("server.conn.inflight_rejects").Value()

	// Queue depth is a gauge; sample it while the ladder runs.
	var maxDepth atomic.Int64
	stopSampler := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		g := reg.Gauge("server.queue.depth")
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				if v := g.Value(); v > maxDepth.Load() {
					maxDepth.Store(v)
				}
			}
		}
	}()

	var late []float64
	atSLO := 0.0
	passing := true
	var ladderAttempted int64
	for i, rate := range sz.ladder {
		sched := poissonSchedule(newRand(o.seed+10+int64(i)), rate, step)
		r := openLoop(ctx, conns, len(e.stream), i*len(e.stream)/len(sz.ladder), sched, e.exec)
		res.Attempted += r.attempted
		ladderAttempted += r.attempted
		late = append(late, r.lateUS...)
		res.set(fmt.Sprintf("loadgen.within_slo_share_r%d", i+1), r.withinShare(sz.sloMS), int(r.attempted))
		// A step holds the SLO when its p95 is within the limit, nothing
		// failed, the backlog did not grow and the generator kept time;
		// the reported rate is the highest step below which all hold.
		ok := quantile(r.latMS, 0.95) <= sz.sloMS && r.failed == 0 && !r.backlogGrew() &&
			quantile(r.lateUS, 0.99) <= 1000*sz.sloMS/lateShare
		res.Notes = append(res.Notes, fmt.Sprintf("ladder r%d %6.0f req/s: p50 %.3f ms, p95 %.3f ms, failed or refused %d of %d, in flight %.1f then %.1f, generator late p99 %.0f us, holds SLO: %v",
			i+1, rate, quantile(r.latMS, 0.5), quantile(r.latMS, 0.95), r.failed, r.attempted, r.inflightFirst, r.inflightSecond, quantile(r.lateUS, 0.99), ok))
		if passing && ok {
			atSLO = rate
		} else {
			passing = false
		}
		// Let the queue drain so one step's backlog is not the next's.
		time.Sleep(50 * time.Millisecond)
	}
	close(stopSampler)
	samplerWG.Wait()
	rejected := reg.Counter("server.requests.rejected_overload").Value() +
		reg.Counter("server.conn.inflight_rejects").Value() - rejected0
	res.set("loadgen.rate_at_slo_rps", atSLO, len(sz.ladder))
	res.set("loadgen.late_p99_us", quantile(late, 0.99), len(late))
	res.set("server.queue_depth_max", float64(maxDepth.Load()), 1)
	res.set("server.rejected_share", float64(rejected)/float64(ladderAttempted), int(ladderAttempted))
	setQualityNA(res)

	t := target{scale: sz.scale, sys: e.sys, selects: e.stream}
	return probeLayers(ctx, res, o, probeEnv{
		workload: sz.name,
		plan:     t,
		exec:     t,
		d:        e.d,
		wire:     e.stream,
		dml:      dmlProbe(newRand(o.seed+3), dimsAt(sz.scale), dmlProbeN),
	})
}

// toExecResult is the conversion the server performs before encoding.
func toExecResult(r *autostats.QueryResult) *protocol.ExecResult {
	return &protocol.ExecResult{Columns: r.Columns, Rows: r.Rows, ExecCost: r.ExecCost,
		EstimatedCost: r.EstimatedCost, Plan: r.Plan, Affected: r.Affected, Degraded: r.Degraded}
}

// calibrateServe prints open-loop latency at a grid of rates. It is how the
// frozen ladder was found (README, "Calibration") and how to look again
// after the hardware changes; no metric comes from it.
func calibrateServe(sz serveSizing, o options) error {
	e, err := setupServe(sz, o.seed)
	if err != nil {
		return err
	}
	defer e.d.stop()
	step := o.share(1)
	fmt.Printf("%s: open loop, %d connections, %v per rate, SLO p95 <= %.0f ms\n", sz.name, conns, step, sz.sloMS)
	fmt.Printf("%10s %10s %10s %10s %10s %10s %8s\n", "rate", "p50_ms", "p95_ms", "within", "late_p99", "refused", "backlog")
	for rate := sz.ladder[0] / 2; rate <= sz.ladder[4]*1.5; rate *= 1.25 {
		refused0 := e.errs.Load()
		r := openLoop(context.Background(), conns, len(e.stream), 0, poissonSchedule(newRand(o.seed), rate, step), e.exec)
		fmt.Printf("%10.0f %10.3f %10.3f %10.3f %10.0f %10d %8v\n", rate, quantile(r.latMS, 0.5), quantile(r.latMS, 0.95),
			r.withinShare(sz.sloMS), quantile(r.lateUS, 0.99), e.errs.Load()-refused0, r.backlogGrew())
		time.Sleep(200 * time.Millisecond)
	}
	return nil
}
