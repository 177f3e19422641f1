package autostats_test

// Benchmark harness: one testing.B benchmark per table/figure of the paper's
// §8 evaluation (plus the §1 motivating experiment and the DESIGN.md
// ablations). Each benchmark runs the corresponding experiment cell and
// reports the paper's headline metric as a custom unit, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation. Use cmd/experiments for the full
// formatted tables.

import (
	"strings"
	"testing"

	"autostats"
	"autostats/internal/bench"
	"autostats/internal/core"
)

// metricUnit makes an ablation label usable as a testing.B metric unit
// (units must not contain whitespace).
func metricUnit(label, suffix string) string {
	return strings.ReplaceAll(label, " ", "") + suffix
}

const (
	benchScale = 0.5
	benchSeed  = 1
)

// BenchmarkIntroPlanChanges regenerates the §1 motivating experiment:
// TPCD-ORIG plans re-optimized after statistics creation (paper: 15/17
// change and improve).
func BenchmarkIntroPlanChanges(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Intro("TPCD_2", 1.0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Changed), "plans-changed/17")
		b.ReportMetric(float64(res.Improved), "plans-improved/17")
	}
}

func benchFig3(b *testing.B, db string) {
	for i := 0; i < b.N; i++ {
		row, err := bench.Figure3(db, "U0-C-100", benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(row.CreationReductionPct, "creation-reduction-%")
		b.ReportMetric(row.ExecIncreasePct, "exec-increase-%")
	}
}

// BenchmarkFigure3CandidateStats — Figure 3, candidate statistics algorithm
// vs exhaustive baseline (paper: 50-80 % creation-time reduction, ≤3 % exec
// increase), one sub-benchmark per database distribution.
func BenchmarkFigure3CandidateStats(b *testing.B) {
	for _, db := range []string{"TPCD_0", "TPCD_2", "TPCD_4", "TPCD_MIX"} {
		b.Run(db, func(b *testing.B) { benchFig3(b, db) })
	}
}

func benchFig4(b *testing.B, db string, singleCol bool) {
	fn := core.CandidateStats
	if singleCol {
		fn = core.SingleColumnCandidates
	}
	for i := 0; i < b.N; i++ {
		row, err := bench.Figure4(db, "U0-C-100", benchScale, benchSeed, fn)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(row.CreationReductionPct, "creation-reduction-%")
		b.ReportMetric(row.ExecIncreasePct, "exec-increase-%")
		b.ReportMetric(float64(row.OptimizerCalls), "optimizer-calls")
	}
}

// BenchmarkFigure4MNSA — Figure 4, MNSA vs creating all candidate statistics
// (paper: 30-45 % creation-time reduction incl. MNSA overhead, ≤2 % exec
// increase).
func BenchmarkFigure4MNSA(b *testing.B) {
	for _, db := range []string{"TPCD_0", "TPCD_2", "TPCD_4", "TPCD_MIX"} {
		b.Run(db, func(b *testing.B) { benchFig4(b, db, false) })
	}
}

// BenchmarkFigure4SingleColumn — the §8.2 variant restricted to
// single-column candidates (paper: >30 % reduction in all cases; see
// EXPERIMENTS.md for why our micro-scale substrate lands lower).
func BenchmarkFigure4SingleColumn(b *testing.B) {
	for _, db := range []string{"TPCD_0", "TPCD_2", "TPCD_4", "TPCD_MIX"} {
		b.Run(db, func(b *testing.B) { benchFig4(b, db, true) })
	}
}

// BenchmarkTable1MNSADUpdateCost — Table 1, reduction in statistics update
// cost of MNSA/D vs MNSA on the U25-C-100 workload (paper: 30-34 %), plus
// the §8.2 re-run quality check (paper: ≤6 % exec increase).
func BenchmarkTable1MNSADUpdateCost(b *testing.B) {
	for _, db := range []string{"TPCD_0", "TPCD_2", "TPCD_4", "TPCD_MIX"} {
		b.Run(db, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row, err := bench.Table1(db, "U25-C-100", benchScale, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(row.UpdateReductionPct, "update-reduction-%")
				b.ReportMetric(row.ReplayReductionPct, "replay-reduction-%")
				b.ReportMetric(row.ExecIncreasePct, "rerun-exec-increase-%")
			}
		})
	}
}

// BenchmarkAblationThreshold sweeps the t-optimizer-cost threshold
// (DESIGN.md ablation ✦).
func BenchmarkAblationThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationThreshold("TPCD_2", "U0-C-60", benchScale, benchSeed, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.StatsCreated), metricUnit(r.Label, "-stats"))
		}
	}
}

// BenchmarkAblationEpsilon sweeps ε (DESIGN.md ablation ✦).
func BenchmarkAblationEpsilon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationEpsilon("TPCD_2", "U0-C-60", benchScale, benchSeed, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.StatsCreated), metricUnit(r.Label, "-stats"))
		}
	}
}

// BenchmarkAblationNextStat compares the §4.2 most-expensive-operator
// heuristic against random statistic selection (DESIGN.md ablation ✦).
func BenchmarkAblationNextStat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationNextStat("TPCD_2", "U0-C-60", benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.CreationUnits, metricUnit(r.Label, "-units"))
		}
	}
}

// BenchmarkWorkloadTuning measures MNSA workload tuning wall-clock on a fresh
// system per iteration.
func BenchmarkWorkloadTuning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := autostats.GenerateTPCD(autostats.TPCDOptions{Scale: benchScale, Skew: 2})
		if err != nil {
			b.Fatal(err)
		}
		sqls, err := sys.GenerateWorkload(autostats.WorkloadOptions{Count: 40})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rep, err := sys.TuneWorkload(sqls, autostats.TuneOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rep.Created)), "stats-created")
	}
}

// BenchmarkOptimizeCached measures repeated optimization of a workload with
// and without the plan cache; steady-state re-optimization of a repeating
// workload should be dominated by cache hits.
func BenchmarkOptimizeCached(b *testing.B) {
	setup := func(b *testing.B, cacheCap int) (*autostats.System, []string) {
		sys, err := autostats.GenerateTPCD(autostats.TPCDOptions{Scale: benchScale, Skew: 2})
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.CreateIndexedColumnStats(); err != nil {
			b.Fatal(err)
		}
		sys.SetPlanCacheCapacity(cacheCap)
		sqls, err := sys.GenerateWorkload(autostats.WorkloadOptions{Count: 30})
		if err != nil {
			b.Fatal(err)
		}
		return sys, sqls
	}
	run := func(b *testing.B, cacheCap int) {
		sys, sqls := setup(b, cacheCap)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, sql := range sqls {
				if _, err := sys.Explain(sql); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		if st := sys.PlanCacheStats(); st.Hits+st.Misses > 0 {
			b.ReportMetric(100*st.HitRate(), "hit-rate-%")
		}
	}
	b.Run("uncached", func(b *testing.B) { run(b, 0) })
	b.Run("cached", func(b *testing.B) { run(b, autostats.DefaultPlanCacheCapacity) })
}

// BenchmarkStatisticsBuild measures histogram construction cost on the
// largest table.
func BenchmarkStatisticsBuild(b *testing.B) {
	sys, err := autostats.GenerateTPCD(autostats.TPCDOptions{Scale: 1, Skew: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.CreateStatistic("lineitem", "l_shipdate"); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		sys.DropStatistic("lineitem", "l_shipdate")
		b.StartTimer()
	}
}

// BenchmarkMNSAQuery measures a single-query MNSA run end to end.
func BenchmarkMNSAQuery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := autostats.GenerateTPCD(autostats.TPCDOptions{Scale: 0.5, Skew: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := sys.TuneQuery("SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 45 AND o_totalprice > 400000", autostats.TuneOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCostWeighted sweeps the §6 cost-coverage knob.
func BenchmarkAblationCostWeighted(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationCostWeighted("TPCD_2", "U0-C-60", benchScale, benchSeed, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.CreationUnits, metricUnit(r.Label, "-units"))
		}
	}
}

// BenchmarkAblationHistogramKind compares MaxDiff vs equi-depth histograms
// under identical MNSA selection (§1: the algorithms are oblivious to the
// statistics structure; the structure still matters for plan quality).
func BenchmarkAblationHistogramKind(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationHistogramKind("TPCD_2", "U0-C-60", benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.ExecCost, metricUnit(r.Label, "-exec"))
		}
	}
}
