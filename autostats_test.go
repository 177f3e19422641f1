package autostats

import (
	"context"
	"strings"
	"testing"
)

func testSystem(t testing.TB) *System {
	t.Helper()
	sys, err := GenerateTPCD(TPCDOptions{Scale: 0.25, Skew: 2})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestGenerateTPCDOptions(t *testing.T) {
	sys, err := GenerateTPCD(TPCDOptions{Mix: true, Scale: 0.2, HistogramBuckets: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Schema().TableNames()); got != 8 {
		t.Errorf("schema tables = %d", got)
	}
	if err := sys.CreateStatistic("orders", "o_totalprice"); err != nil {
		t.Fatal(err)
	}
	if st := sys.Statistics(); len(st) != 1 || st[0].Buckets == 0 || st[0].Buckets > 5 {
		t.Errorf("HistogramBuckets 5: statistics %+v", st)
	}
}

func TestExecQueryAndDML(t *testing.T) {
	sys := testSystem(t)
	res, err := sys.Exec("SELECT * FROM region WHERE r_name = 'ASIA'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.ExecCost <= 0 || res.Plan == "" {
		t.Errorf("query result: rows=%d cost=%v", len(res.Rows), res.ExecCost)
	}
	if len(res.Columns) != 3 {
		t.Errorf("region has 3 columns, got %v", res.Columns)
	}

	ins, err := sys.Exec("INSERT INTO region VALUES (9, 'ATLANTIS', 'x')")
	if err != nil {
		t.Fatal(err)
	}
	if ins.Affected != 1 {
		t.Errorf("insert affected = %d", ins.Affected)
	}
	del, err := sys.Exec("DELETE FROM region WHERE r_regionkey = 9")
	if err != nil {
		t.Fatal(err)
	}
	if del.Affected != 1 {
		t.Errorf("delete affected = %d", del.Affected)
	}
	if _, err := sys.Exec("SELECT nothing FROM nowhere"); err == nil {
		t.Error("expected error for bad SQL")
	}
}

func TestExplain(t *testing.T) {
	sys := testSystem(t)
	plan, err := sys.Explain(context.Background(), "SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Join") {
		t.Errorf("plan missing join:\n%s", plan)
	}
}

func TestTuneQueryLifecycle(t *testing.T) {
	sys := testSystem(t)
	rep, err := sys.TuneQuery(context.Background(), "SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 45", TuneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Created) == 0 || rep.OptimizerCalls == 0 || rep.CreationCostUnits <= 0 {
		t.Errorf("tune report: %+v", rep)
	}
	infos := sys.Statistics()
	if len(infos) != len(rep.Created) {
		t.Errorf("Statistics() lists %d, created %d", len(infos), len(rep.Created))
	}
	for _, si := range infos {
		if si.Rows <= 0 || si.Buckets <= 0 {
			t.Errorf("stat info incomplete: %+v", si)
		}
	}
}

func TestTuneWorkloadWithShrink(t *testing.T) {
	sys := testSystem(t)
	sqls, err := sys.GenerateWorkload(WorkloadOptions{Count: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.TuneWorkloadCtx(context.Background(), sqls, TuneOptions{Shrink: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Essential == nil {
		t.Error("Shrink should produce an essential set (possibly empty)")
	}
	if len(rep.Essential)+len(rep.DropListed) != len(sys.Statistics()) {
		t.Errorf("essential %d + droplisted %d != stats %d",
			len(rep.Essential), len(rep.DropListed), len(sys.Statistics()))
	}
}

// TestTuneWorkloadDropAndShrinkReportUnion: with Drop and Shrink both set the
// report must name every statistic the run put on the drop-list — MNSA/D's
// entries stay drop-listed even when Shrinking Set keeps them as essential —
// each exactly once.
func TestTuneWorkloadDropAndShrinkReportUnion(t *testing.T) {
	sys, err := GenerateTPCD(TPCDOptions{Scale: 0.5, Skew: 2})
	if err != nil {
		t.Fatal(err)
	}
	sqls, err := sys.GenerateWorkload(WorkloadOptions{Count: 100, Complex: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.TuneWorkloadCtx(context.Background(), sqls, TuneOptions{Drop: true, Shrink: true})
	if err != nil {
		t.Fatal(err)
	}
	inDropList := map[string]bool{}
	for _, si := range sys.Statistics() {
		if si.InDropList {
			inDropList[si.ID] = true
		}
	}
	if len(rep.DropListed) != len(inDropList) {
		t.Errorf("report lists %d drop-listed, %d statistics carry InDropList", len(rep.DropListed), len(inDropList))
	}
	reported := map[string]bool{}
	for _, id := range rep.DropListed {
		if reported[id] {
			t.Errorf("%s reported twice", id)
		}
		reported[id] = true
		if !inDropList[id] {
			t.Errorf("%s reported drop-listed but is not on the drop-list", id)
		}
	}
	// The case at stake: something MNSA/D drop-listed survived shrinking.
	kept := 0
	for _, id := range rep.Essential {
		if inDropList[id] {
			kept++
		}
	}
	if kept == 0 {
		t.Error("workload no longer exercises a drop-listed statistic kept as essential")
	}
}

func TestCreateDropStatistic(t *testing.T) {
	sys := testSystem(t)
	if err := sys.CreateStatistic("orders", "o_totalprice"); err != nil {
		t.Fatal(err)
	}
	if len(sys.Statistics()) != 1 {
		t.Error("statistic not visible")
	}
	if !sys.DropStatistic("orders", "o_totalprice") {
		t.Error("drop failed")
	}
	if sys.DropStatistic("orders", "o_totalprice") {
		t.Error("double drop should fail")
	}
	if err := sys.CreateStatistic("orders", "nope"); err == nil {
		t.Error("expected error for unknown column")
	}
}

func TestProcessStatementOnTheFly(t *testing.T) {
	sys := testSystem(t)
	res, err := sys.ProcessStatementCtx(context.Background(), "SELECT * FROM orders, customer WHERE o_custkey = c_custkey AND o_totalprice > 400000")
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecCost <= 0 {
		t.Error("no cost charged")
	}
	if len(sys.Statistics()) == 0 {
		t.Error("on-the-fly processing should create statistics")
	}
	if _, err := sys.ProcessStatementCtx(context.Background(), "INSERT INTO region VALUES (9, 'X', 'c')"); err != nil {
		t.Fatal(err)
	}
}

func TestTPCDOrigWorkloadFacade(t *testing.T) {
	sys := testSystem(t)
	sqls, err := sys.TPCDOrigWorkload()
	if err != nil {
		t.Fatal(err)
	}
	if len(sqls) != 17 {
		t.Errorf("TPCD-ORIG has 17 queries, got %d", len(sqls))
	}
}

func TestCreateIndexedColumnStatsFacade(t *testing.T) {
	sys := testSystem(t)
	if err := sys.CreateIndexedColumnStats(); err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Statistics()); got != 13 {
		t.Errorf("expected 13 indexed-column statistics, got %d", got)
	}
}

func TestRunMaintenanceFacade(t *testing.T) {
	sys := testSystem(t)
	if err := sys.CreateStatistic("region", "r_name"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := sys.Exec("INSERT INTO region VALUES (9, 'X', 'c')"); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := sys.RunMaintenance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TablesRefreshed != 1 || rep.StatsDropped != 0 || len(rep.RefreshFailures) != 0 {
		t.Errorf("maintenance: refreshed=%d dropped=%d failures=%v", rep.TablesRefreshed, rep.StatsDropped, rep.RefreshFailures)
	}
}
