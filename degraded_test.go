package autostats

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

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

// TestGracefulDegradationEndToEnd: on a default System with the statistics
// build path hard-down, statements still plan and execute on magic-number
// plans tagged Degraded and return the reference rows, the degraded.*
// telemetry fires, no degraded plan enters the plan cache, and the first
// statement after the build path recovers plans healthy with the same rows.
func TestGracefulDegradationEndToEnd(t *testing.T) {
	sys := testSystem(t)
	queries := []string{
		"SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 45",
		"SELECT * FROM orders, customer WHERE o_custkey = c_custkey AND o_totalprice > 400000",
		"SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_discount > 0.05",
	}
	ctx := context.Background()
	// Exec builds no statistics: its rows are the reference.
	want := make([][]string, len(queries))
	for i, q := range queries {
		res, err := sys.ExecCtx(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sortedRows(res.Rows)
	}

	down := errors.New("stats store down")
	sys.mgr.SetFailpoint(func(context.Context, string, stats.ID) error {
		return down
	})
	reg := sys.Obs()
	counters := []string{"degraded.plans", "degraded.statements", "degraded.plancache_bypasses", "mnsa.build_failures"}
	before := make(map[string]int64, len(counters))
	for _, c := range counters {
		before[c] = reg.Counter(c).Value()
	}
	for i, q := range queries {
		res, err := sys.ProcessStatementCtx(ctx, q)
		if err != nil {
			t.Fatalf("degraded statement %q must still execute: %v", q, err)
		}
		if !slices.Contains(res.Degraded, "stats-build") {
			t.Fatalf("statement %q with stats down: Degraded = %v, want it to contain stats-build", q, res.Degraded)
		}
		if !slices.Equal(sortedRows(res.Rows), want[i]) {
			t.Errorf("degraded %q: rows differ from the reference", q)
		}
	}
	for _, c := range counters {
		if reg.Counter(c).Value() == before[c] {
			t.Errorf("counter %s did not move in the degraded phase", c)
		}
	}
	if got := reg.Counter("degraded.plancache_bypasses").Value() - before["degraded.plancache_bypasses"]; got < int64(len(queries)) {
		t.Errorf("plancache bypasses = %d, want >= %d (one per degraded statement)", got, len(queries))
	}
	// A degraded statement neither stores its plan nor is served one: re-running
	// it adds no entry, and (below) the first healthy run is not degraded.
	sizeBefore := sys.PlanCacheStats().Size
	if res, err := sys.ProcessStatementCtx(ctx, queries[0]); err != nil || len(res.Degraded) == 0 {
		t.Fatalf("repeat degraded statement: err=%v", err)
	}
	if got := sys.PlanCacheStats().Size; got != sizeBefore {
		t.Errorf("plan cache grew %d -> %d across a degraded statement", sizeBefore, got)
	}

	// Recovery: the very next statement builds what it wants and plans
	// healthy, with no reset call and nothing to wait out.
	sys.mgr.SetFailpoint(nil)
	for i, q := range queries {
		res, err := sys.ProcessStatementCtx(ctx, q)
		if err != nil {
			t.Fatalf("recovered statement %q: %v", q, err)
		}
		if len(res.Degraded) != 0 {
			t.Errorf("statement %q still degraded after recovery: %v", q, res.Degraded)
		}
		if !slices.Equal(sortedRows(res.Rows), want[i]) {
			t.Errorf("recovered %q: rows differ from the reference", q)
		}
	}
	if n := len(sys.Statistics()); n == 0 {
		t.Error("recovery built no statistics")
	}
}

// TestTuneDegradedReport: tuning on a default System under a failing build
// path reports Degraded with one failure per statistic it could not build,
// named by that statistic's ID, instead of aborting, both for one query and
// for a workload.
func TestTuneDegradedReport(t *testing.T) {
	sys := testSystem(t)
	down := errors.New("down")
	var vetoed []string
	sys.mgr.SetFailpoint(func(_ context.Context, _ string, id stats.ID) error {
		vetoed = append(vetoed, string(id))
		return down
	})
	const q = "SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 45"
	rep, err := sys.TuneQuery(context.Background(), q, TuneOptions{})
	if err != nil {
		t.Fatalf("degraded tune must not abort: %v", err)
	}
	if !rep.Degraded || len(rep.BuildFailures) == 0 {
		t.Fatalf("report should be degraded with failures: degraded=%v failures=%d",
			rep.Degraded, len(rep.BuildFailures))
	}
	if !slices.Equal(rep.BuildFailures, vetoed) {
		t.Errorf("BuildFailures = %v, want the vetoed statistic IDs %v", rep.BuildFailures, vetoed)
	}
	wrep, err := sys.TuneWorkloadCtx(context.Background(), []string{q}, TuneOptions{Shrink: true})
	if err != nil {
		t.Fatalf("degraded workload tune must not abort: %v", err)
	}
	if !wrep.Degraded || len(wrep.Created) != 0 {
		t.Errorf("workload tune: degraded=%v created=%v, want degraded with nothing built", wrep.Degraded, wrep.Created)
	}
}

// TestMaintenanceFailureKeepsStatementResult: on a default System, the
// on-the-fly policy's 25th statement triggers a maintenance pass whose only
// refresh fails. The statement has already executed, so its result comes
// back; the failure is recorded, not returned, by every maintenance entry
// point; and once the fault clears, the next pass refreshes the table.
func TestMaintenanceFailureKeepsStatementResult(t *testing.T) {
	sys := testSystem(t)
	if err := sys.CreateStatistic("region", "r_name"); err != nil {
		t.Fatal(err)
	}
	injected := errors.New("refresh store down")
	sys.mgr.SetFailpoint(func(_ context.Context, op string, _ stats.ID) error {
		if op == "refresh" {
			return injected
		}
		return nil
	})
	reg := sys.Obs()
	failures := reg.Counter("stats.maintenance.refresh_failures")
	failuresBefore := failures.Value()
	ctx := context.Background()
	every := sys.auto.MaintenanceEvery
	insert := func(i int) {
		t.Helper()
		res, err := sys.ProcessStatementCtx(ctx, fmt.Sprintf("INSERT INTO region VALUES (%d, 'X%d', 'c')", 100+i, i))
		if err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
		if res.Affected != 1 {
			t.Fatalf("statement %d affected %d rows", i, res.Affected)
		}
	}
	// Every statement adds a region row, so by the pass the modification
	// counter is far past 20 % of the table.
	for i := 1; i <= every; i++ {
		insert(i)
	}
	if res, err := sys.Exec(fmt.Sprintf("SELECT * FROM region WHERE r_name = 'X%d'", every)); err != nil || len(res.Rows) != 1 {
		t.Fatalf("the row of statement %d is not visible: err=%v", every, err)
	}
	if got := failures.Value() - failuresBefore; got != 1 {
		t.Fatalf("stats.maintenance.refresh_failures grew by %d, want 1", got)
	}

	// The explicit entry point records the failure too, with its cause.
	rep, err := sys.RunMaintenance(ctx)
	if err != nil || rep.TablesRefreshed != 0 || len(rep.RefreshFailures) != 1 || !errors.Is(rep.RefreshFailures[0].Err, injected) {
		t.Fatalf("RunMaintenance: refreshed=%d failures=%v err=%v, want no refresh, one region failure and no error", rep.TablesRefreshed, rep.RefreshFailures, err)
	}

	// The failed table kept its modification counter, so the next
	// on-the-fly pass after the fault clears refreshes it.
	sys.mgr.SetFailpoint(nil)
	for i := every + 1; i <= 2*every; i++ {
		insert(i)
	}
	st := sys.Statistics()
	if len(st) != 1 || st[0].Updates != 1 || st[0].Rows != int64(5+2*every) {
		t.Fatalf("region statistic after recovery: %+v, want one refresh at %d rows", st, 5+2*every)
	}
}
