package main

import (
	"context"
	"fmt"
	"time"

	"autostats"
)

// churnSizing fixes churn_onfly: the on-the-fly policy of §6 over a stream
// that is half DML, on one goroutine.
type churnSizing struct {
	scale float64
	// stream is the number of statements generated; the run stops at
	// -seconds or at the end of the stream, whichever comes first.
	stream int
	// window is the window length of quietWindows: a second holds ~300
	// statements and a dozen maintenance passes, so windows are alike.
	window time.Duration
}

var churnOnFly = churnSizing{scale: 20, stream: 40000, window: time.Second}

func (sz churnSizing) smoke() churnSizing {
	sz.scale, sz.stream, sz.window = 0.2, 4000, 100*time.Millisecond
	return sz
}

// churnTables are compared row for row with the DML-only replay.
var churnTables = []string{"orders", "lineitem", "customer", "part"}

type churnEnv struct {
	sz     churnSizing
	sys    *autostats.System
	stream []string
}

func setupChurn(sz churnSizing, seed int64) (*churnEnv, error) {
	sys, err := newSystem(sz.scale)
	if err != nil {
		return nil, err
	}
	g := newChurnGen(newRand(seed), dimsAt(sz.scale))
	return &churnEnv{sz: sz, sys: sys, stream: g.stream(sz.stream)}, nil
}

func runChurn(sz churnSizing, o options) (*result, error) {
	if o.smoke {
		sz = sz.smoke()
	}
	ctx := context.Background()
	res := newResult("churn_onfly", o.trace, o.seed, o.seconds)
	var e *churnEnv
	setups, err := repeatSetup(o, func() (err error) {
		e, err = setupChurn(sz, o.seed)
		return err
	}, func() { e = nil })
	if err != nil {
		return nil, err
	}

	limit := o.seconds
	if o.trace {
		limit = 0.3 * o.seconds
	}
	policy := markPolicy()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	var all []opSample
	var sel, dml []float64
	before := markMem()
	start := time.Now()
	done := 0
	for _, sql := range e.stream {
		if time.Since(start).Seconds() >= limit {
			break
		}
		var err error
		_, d := tr.do(policySpan(sql), 0, done+1, func() { _, err = e.sys.ProcessStatementCtx(ctx, sql) })
		if err != nil {
			return nil, fmt.Errorf("statement %d %q: %w", done, sql, err)
		}
		done++
		all = append(all, opSample{at: time.Since(start), ms: ms(d)})
		if isSelect(sql) {
			sel = append(sel, us(d))
		} else {
			dml = append(dml, us(d))
		}
	}
	wall := time.Since(start)
	after := markMem()
	res.Attempted = int64(done)

	// Reference: the same DML, and nothing else, on a system that never
	// builds a statistic. Its final tables must equal the measured system's.
	ref, err := newSystem(sz.scale)
	if err != nil {
		return nil, err
	}
	var store []float64
	for _, sql := range e.stream[:done] {
		if isSelect(sql) {
			continue
		}
		t0 := time.Now()
		if _, err := ref.Exec(sql); err != nil {
			return nil, fmt.Errorf("reference %q: %w", sql, err)
		}
		store = append(store, us(time.Since(t0)))
	}
	differ := ""
	for _, t := range churnTables {
		got, err := tableDigest(e.sys, t)
		if err != nil {
			return nil, err
		}
		want, err := tableDigest(ref, t)
		if err != nil {
			return nil, err
		}
		if got != want {
			differ += fmt.Sprintf(" %s: %d rows, reference %d;", t, got.rows, want.rows)
		}
	}
	res.check("final tables equal a DML-only replay without statistics", differ == "",
		fmt.Sprintf("%d statements, %d DML;%s", done, len(dml), differ))
	if done == len(e.stream) && !o.smoke {
		res.check("stream outlasted the run", false, "the statement stream ran out before -seconds; lengthen it")
	}

	if !o.trace {
		res.set("setup_s", median(setups), len(setups))
		q := quietWindows(all, sz.window, wall)
		res.set("op_p50_ms", q.p50ms, q.windows)
		res.set("op_p95_ms", q.p95ms, q.windows)
		res.set("ops_per_s", q.perSec, q.windows)
		res.set("alloc_kb_per_op", float64(after.bytes-before.bytes)/1024/float64(done), done)
		res.set("peak_rss_mb", peakRSSMB(), 1)
		return res, nil
	}

	res.set("core.select_us_p50", median(sel), len(sel))
	res.set("core.dml_us_p50", median(dml), len(dml))
	res.set("storage.dml_us_p50", median(store), len(store))
	policy.setDeltas(res)
	setQualityNA(res)

	var selects []string
	for _, sql := range e.stream {
		if isSelect(sql) {
			selects = append(selects, sql)
		}
	}
	wire, err := wireSample(e.sys, selects, wireReplayN/2)
	if err != nil {
		return nil, err
	}
	t := target{scale: sz.scale, sys: e.sys, selects: selects}
	err = probeLayers(ctx, res, o, probeEnv{
		workload: "churn_onfly",
		plan:     t,
		exec:     t,
		wire:     wire,
		onTheFly: tr,
	})
	return res, err
}

// tableDigest is the row count and order-insensitive checksum of a table,
// read through the facade like any client would.
func tableDigest(sys *autostats.System, table string) (rowsDigest, error) {
	key := map[string]string{"orders": "o_orderkey", "lineitem": "l_orderkey", "customer": "c_custkey", "part": "p_partkey"}[table]
	r, err := sys.Exec(fmt.Sprintf("SELECT * FROM %s WHERE %s >= 0", table, key))
	if err != nil {
		return rowsDigest{}, err
	}
	return digestRows(r.Rows), nil
}
