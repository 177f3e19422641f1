package autostats

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"autostats/internal/resilience"
	"autostats/internal/stats"
)

func sortedRows(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "|")
	}
	sort.Strings(out)
	return out
}

// TestGracefulDegradationEndToEnd is the acceptance scenario for the
// resilience layer: with the statistics build path hard-down, statements
// still plan and execute on magic-number plans tagged Degraded, the
// resilience.*/degraded.* telemetry fires, the plan cache stays clean of
// degraded plans, and once the build path recovers the very next statements
// produce healthy, non-degraded plans with identical results.
func TestGracefulDegradationEndToEnd(t *testing.T) {
	sys := testSystem(t)
	sys.EnableResilience(ResilienceOptions{
		Retries:          1,
		RetryBaseDelay:   time.Microsecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Millisecond,
	})

	down := errors.New("stats store down")
	sys.mgr.SetFailpoint(func(context.Context, string, stats.ID) error {
		return stats.Transient(down)
	})

	queries := []string{
		"SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 45",
		"SELECT * FROM orders, customer WHERE o_custkey = c_custkey AND o_totalprice > 400000",
		"SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_discount > 0.05",
	}
	ctx := context.Background()
	degradedRows := make([][]string, len(queries))
	for i, q := range queries {
		res, err := sys.ProcessStatementCtx(ctx, q)
		if err != nil {
			t.Fatalf("degraded statement %q must still execute: %v", q, err)
		}
		if len(res.Degraded) == 0 {
			t.Fatalf("statement %q with stats down must be degraded", q)
		}
		degradedRows[i] = sortedRows(res.Rows)
	}

	reg := sys.Obs()
	for _, c := range []string{
		"degraded.plans",
		"degraded.statements",
		"degraded.plancache_bypasses",
		"resilience.ensure.failures",
		"resilience.retry.attempts",
		"resilience.breaker.trips",
	} {
		if got := reg.Counter(c).Value(); got == 0 {
			t.Errorf("counter %s = 0 after degraded phase", c)
		}
	}
	if got := reg.Counter("degraded.plancache_bypasses").Value(); got < int64(len(queries)) {
		t.Errorf("plancache bypasses = %d, want >= %d (one per degraded statement)", got, len(queries))
	}
	// Degraded statements must not grow the plan cache: re-running one adds
	// no entries (MNSA probe plans from the first pass are reused by key; the
	// degraded executed plan is never stored).
	sizeBefore := sys.PlanCacheStats().Size
	if res, err := sys.ProcessStatementCtx(ctx, queries[0]); err != nil || len(res.Degraded) == 0 {
		t.Fatalf("repeat degraded statement: err=%v degraded=%v", err, res.Degraded)
	}
	if got := sys.PlanCacheStats().Size; got != sizeBefore {
		t.Errorf("plan cache grew %d -> %d across a degraded statement", sizeBefore, got)
	}
	states := sys.BreakerStates()
	if len(states) == 0 {
		t.Fatal("no breaker state after repeated failures")
	}
	open := 0
	for _, st := range states {
		if st.State == resilience.Open {
			open++
		}
	}
	if open == 0 {
		t.Errorf("no breaker open after the outage: %+v", states)
	}

	// Recovery: build path comes back, cooldown elapses, half-open probes
	// succeed and the next statements plan healthy with the same results.
	sys.mgr.SetFailpoint(nil)
	time.Sleep(5 * time.Millisecond)
	for i, q := range queries {
		res, err := sys.ProcessStatementCtx(ctx, q)
		if err != nil {
			t.Fatalf("recovered statement %q: %v", q, err)
		}
		if len(res.Degraded) != 0 {
			t.Errorf("statement %q still degraded after recovery: %v", q, res.Degraded)
		}
		healthy := sortedRows(res.Rows)
		if len(healthy) != len(degradedRows[i]) {
			t.Errorf("%q: degraded run returned %d rows, healthy run %d", q, len(degradedRows[i]), len(healthy))
			continue
		}
		for j := range healthy {
			if healthy[j] != degradedRows[i][j] {
				t.Errorf("%q: row %d differs between degraded and healthy runs", q, j)
				break
			}
		}
	}
	for _, st := range sys.BreakerStates() {
		if st.State == resilience.Open {
			t.Errorf("breaker for %s still open after recovery", st.Table)
		}
	}
	if n := len(sys.Statistics()); n == 0 {
		t.Error("recovery built no statistics")
	}
}

// TestTuneDegradedReport: offline tuning under a failing build path reports
// Degraded with per-statistic failures instead of aborting, and the CLI-facing
// TuneReport carries them.
func TestTuneDegradedReport(t *testing.T) {
	sys := testSystem(t)
	sys.EnableResilience(ResilienceOptions{Retries: 0, RetryBaseDelay: time.Microsecond})
	down := errors.New("down")
	sys.mgr.SetFailpoint(func(context.Context, string, stats.ID) error {
		return stats.Transient(down)
	})
	rep, err := sys.TuneQueryCtx(context.Background(), "SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 45", TuneOptions{})
	if err != nil {
		t.Fatalf("degraded tune must not abort: %v", err)
	}
	if !rep.Degraded || len(rep.BuildFailures) == 0 {
		t.Fatalf("report should be degraded with failures: degraded=%v failures=%d",
			rep.Degraded, len(rep.BuildFailures))
	}
	for _, bf := range rep.BuildFailures {
		if !strings.Contains(bf, "transient") {
			t.Errorf("failure %q lost its reason classification", bf)
		}
	}

	// Cancellation beats tolerance: a canceled tune returns the ctx error.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.TuneQueryCtx(cctx, "SELECT * FROM orders WHERE o_totalprice < 1000", TuneOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled tune: err = %v, want context.Canceled", err)
	}
}

// TestMaintenanceSkipsOpenBreakerTables: with resilience on and a table's
// breaker open, every maintenance entry point — RunMaintenanceCtx,
// RunMaintenance, and the on-the-fly policy's periodic pass — goes through the
// Guard: the table is reported skipped, its failing build path is not
// touched again, and no error comes back. (RunMaintenanceReport, a fourth
// entry point, called the manager directly and aborted here; it is gone.)
func TestMaintenanceSkipsOpenBreakerTables(t *testing.T) {
	sys := testSystem(t)
	if err := sys.CreateStatistic("lineitem", "l_quantity"); err != nil {
		t.Fatal(err)
	}
	sys.EnableResilience(ResilienceOptions{
		Retries:          -1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	})
	// Push lineitem's row-modification counter past the refresh threshold.
	if res, err := sys.Exec("UPDATE lineitem SET l_quantity = 7 WHERE l_quantity > 0"); err != nil || res.Affected == 0 {
		t.Fatalf("update: affected=%v err=%v", res, err)
	}
	attempts := 0
	sys.mgr.SetFailpoint(func(context.Context, string, stats.ID) error {
		attempts++
		return errors.New("stats store down")
	})
	ctx := context.Background()

	// The first pass meets the failure, tolerates it and trips the breaker.
	rep, err := sys.RunMaintenanceCtx(ctx)
	if err != nil {
		t.Fatalf("pass over a failing table must not abort: %v", err)
	}
	if len(rep.RefreshFailures) != 1 || attempts == 0 {
		t.Fatalf("first pass: %d refresh failures, %d build attempts; want the lineitem refresh to fail once", len(rep.RefreshFailures), attempts)
	}
	if st := sys.BreakerStates(); len(st) != 1 || st[0].Table != "lineitem" || st[0].State != resilience.Open {
		t.Fatalf("lineitem's breaker should be open: %+v", st)
	}
	tripped := attempts
	rejects := sys.Obs().Counter("resilience.breaker.rejects")
	rejectsBefore := rejects.Value()

	rep, err = sys.RunMaintenanceCtx(ctx)
	if err != nil || rep.TablesSkipped != 1 || len(rep.RefreshFailures) != 0 {
		t.Errorf("RunMaintenanceCtx with the breaker open: skipped=%d failures=%d err=%v, want 1 skipped and no error",
			rep.TablesSkipped, len(rep.RefreshFailures), err)
	}
	if refreshed, dropped, err := sys.RunMaintenance(); err != nil || refreshed != 0 || dropped != 0 {
		t.Errorf("RunMaintenance with the breaker open: refreshed=%d dropped=%d err=%v", refreshed, dropped, err)
	}
	sys.auto.MaintenanceEvery = 1
	runs := sys.auto.MaintenanceRuns
	if _, err := sys.ProcessStatementCtx(ctx, "DELETE FROM region WHERE r_regionkey < 0"); err != nil {
		t.Errorf("on-the-fly statement whose maintenance pass meets an open breaker: %v", err)
	}
	if sys.auto.MaintenanceRuns != runs+1 {
		t.Error("the on-the-fly policy ran no maintenance pass")
	}
	if attempts != tripped {
		t.Errorf("open-breaker table was hammered: %d build attempts after the trip", attempts-tripped)
	}
	if got := rejects.Value() - rejectsBefore; got != 3 {
		t.Errorf("resilience.breaker.rejects grew by %d, want one per pass (3)", got)
	}
}
