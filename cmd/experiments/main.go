// Command experiments regenerates every table and figure of the paper's §8
// evaluation (plus the §1 motivating experiment and the DESIGN.md ablations)
// on freshly generated skewed TPC-D databases.
//
// Usage:
//
//	experiments -exp all
//	experiments -exp fig4 -workload U0-C-100 -scale 0.5 -seed 1
//
// Experiments: intro, fig3, fig4, fig4sc, table1, ablation-t, ablation-eps,
// ablation-next, ablation-cov, ablation-hist, and all. Any other -exp value
// exits with status 2 and the list of valid names. Timings and regressions
// are measured by perfbench/, not here.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"autostats/internal/bench"
	"autostats/internal/core"
	"autostats/internal/datagen"
	"autostats/internal/obs"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: intro|fig3|fig4|fig4sc|table1|ablation-t|ablation-eps|ablation-next|ablation-cov|ablation-hist|all")
		scale    = flag.Float64("scale", 0.5, "database scale factor (1.0 ≈ 8.7k rows)")
		seed     = flag.Int64("seed", 1, "workload generator seed")
		wl       = flag.String("workload", "", "workload name (default depends on experiment, e.g. U25-C-100 for table1)")
		dbs      = flag.String("dbs", strings.Join(datagen.DatabaseNames(), ","), "comma-separated database list")
		introDB  = flag.String("intro-db", "TPCD_2", "database for the intro experiment")
		introScl = flag.Float64("intro-scale", 1.0, "scale for the intro experiment")
		metrics  = flag.Bool("metrics", false, "dump the observability counters after the experiments")
		traceTo  = flag.String("trace", "", "write a JSONL span trace of the experiments to this file")
		timeout  = flag.Duration("timeout", 0, "abort the experiments after this long (0 = no deadline)")
	)
	flag.Parse()

	dbList := strings.Split(*dbs, ",")
	experiments := []experiment{
		{"intro", func() error { return runIntro(*introDB, *introScl) }},
		{"fig3", func() error { return runFig3(dbList, orDefault(*wl, "U0-C-100"), *scale, *seed) }},
		{"fig4", func() error { return runFig4(dbList, orDefault(*wl, "U0-C-100"), *scale, *seed, false) }},
		{"fig4sc", func() error { return runFig4(dbList, orDefault(*wl, "U0-C-100"), *scale, *seed, true) }},
		{"table1", func() error { return runTable1(dbList, orDefault(*wl, "U25-C-100"), *scale, *seed) }},
	}
	for _, a := range bench.Ablations {
		experiments = append(experiments, experiment{a.Name, func() error {
			wl := orDefault(*wl, "U0-C-60")
			header(fmt.Sprintf(a.Title, ablationDB, wl))
			rows, err := a.Run(ablationDB, wl, *scale, *seed)
			if err != nil {
				return err
			}
			fmt.Printf("%-26s %7s %14s %9s %14s %10s\n", "config", "stats#", "create units", "optcalls", "exec cost", "exec+%")
			for _, r := range rows {
				fmt.Printf("%-26s %7d %14.0f %9d %14.0f %9.1f%%\n",
					r.Label, r.StatsCreated, r.CreationUnits, r.OptimizerCalls, r.ExecCost, r.ExecIncreasePct)
			}
			return nil
		}})
	}
	valid := []string{"all"}
	for _, e := range experiments {
		valid = append(valid, e.name)
	}
	if !slices.Contains(valid, *exp) {
		fmt.Fprintf(os.Stderr, "experiments: unknown -exp %q; valid: %s\n", *exp, strings.Join(valid, ", "))
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var tracer *obs.JSONLTracer
	var traceFile *os.File
	if *traceTo != "" {
		f, err := os.Create(*traceTo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		traceFile = f
		tracer = obs.NewJSONLTracer(f)
		obs.Default.AddTracer(tracer)
	}

	// The record's first line: what produced it, on how many CPUs, and when.
	fmt.Printf("command: %s; %d CPUs; %s\n", strings.Join(append([]string{filepath.Base(os.Args[0])}, os.Args[1:]...), " "),
		runtime.NumCPU(), time.Now().Format("2006-01-02"))

	// On failure or interrupt the remaining experiments are skipped, but the
	// -metrics dump and -trace file are still written before exiting non-zero.
	var runErr error
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		if err := e.run(); err != nil {
			runErr = fmt.Errorf("experiment %s failed: %w", e.name, err)
			break
		}
	}

	if *metrics {
		fmt.Printf("\nmetrics:\n")
		if err := obs.Default.WriteText(os.Stdout); err != nil && runErr == nil {
			runErr = err
		}
	}
	if tracer != nil {
		if err := tracer.Err(); err != nil && runErr == nil {
			runErr = fmt.Errorf("trace: %w", err)
		}
		if err := traceFile.Close(); err != nil && runErr == nil {
			runErr = err
		}
		fmt.Printf("trace written to %s\n", *traceTo)
	}
	if runErr != nil {
		if errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "experiments: interrupted: %v\n", runErr)
		} else {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", runErr)
		}
		os.Exit(1)
	}
}

// experiment is one -exp value and what it runs.
type experiment struct {
	name string
	run  func() error
}

// ablationDB is the database every ablation runs on.
const ablationDB = "TPCD_2"

func orDefault(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

func header(title string) {
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

func runIntro(db string, scale float64) error {
	header(fmt.Sprintf("§1 motivating experiment — %s, scale %.2f (paper: 15/17 plans change, all improve)", db, scale))
	res, err := bench.Intro(db, scale)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-9s %14s %14s %10s\n", "query", "changed", "exec before", "exec after", "delta%")
	for _, r := range res.Rows {
		delta := bench.PctIncrease(r.ExecBefore, r.ExecAfter)
		fmt.Printf("Q%-5d %-9v %14.0f %14.0f %9.1f%%\n", r.Query, r.PlanChanged, r.ExecBefore, r.ExecAfter, delta)
	}
	fmt.Printf("plans changed: %d/17, improved (cost not worse): %d\n", res.Changed, res.Improved)
	return nil
}

func runFig3(dbs []string, wl string, scale float64, seed int64) error {
	header(fmt.Sprintf("Figure 3 — Candidate Statistics vs Exhaustive — workload %s, scale %.2f (paper: 50-80%% creation reduction, ≤3%% exec increase)", wl, scale))
	fmt.Printf("%-10s %6s %6s %14s %14s %12s %12s %10s\n",
		"db", "exh#", "cand#", "exh units", "cand units", "reduction%", "wall-red%", "exec+%")
	for _, db := range dbs {
		row, err := bench.Figure3(db, wl, scale, seed)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %6d %6d %14.0f %14.0f %11.1f%% %11.1f%% %9.1f%%\n",
			row.DB, row.ExhaustiveCount, row.CandidateCount, row.ExhaustiveUnits, row.CandidateUnits,
			row.CreationReductionPct, row.WallReductionPct, row.ExecIncreasePct)
	}
	return nil
}

func runFig4(dbs []string, wl string, scale float64, seed int64, singleCol bool) error {
	title := "Figure 4 — MNSA vs all candidate statistics"
	fn := core.CandidateStats
	expect := "(paper: 30-45% creation reduction, ≤2% exec increase)"
	if singleCol {
		title = "Figure 4 variant — single-column-only candidates"
		fn = core.SingleColumnCandidates
		expect = "(paper: >30% reduction in all cases)"
	}
	header(fmt.Sprintf("%s — workload %s, scale %.2f %s", title, wl, scale, expect))
	fmt.Printf("%-10s %6s %6s %14s %14s %8s %12s %12s %10s\n",
		"db", "all#", "mnsa#", "all units", "mnsa units", "optcalls", "reduction%", "wall-red%", "exec+%")
	for _, db := range dbs {
		row, err := bench.Figure4(db, wl, scale, seed, fn)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %6d %6d %14.0f %14.0f %8d %11.1f%% %11.1f%% %9.1f%%\n",
			row.DB, row.AllCount, row.MNSACount, row.AllUnits, row.MNSAUnits,
			row.OptimizerCalls, row.CreationReductionPct, row.WallReductionPct, row.ExecIncreasePct)
	}
	return nil
}

func runTable1(dbs []string, wl string, scale float64, seed int64) error {
	header(fmt.Sprintf("Table 1 — MNSA/D vs MNSA update cost — workload %s, scale %.2f (paper: 30-34%% reduction, ≤6%% exec increase on re-run)", wl, scale))
	fmt.Printf("%-10s %6s %6s %6s %12s %12s %10s\n",
		"db", "mnsa#", "drop#", "kept#", "upd-red%", "replay-red%", "exec+%")
	for _, db := range dbs {
		row, err := bench.Table1(db, wl, scale, seed)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %6d %6d %6d %11.1f%% %11.1f%% %9.1f%%\n",
			row.DB, row.MNSACount, row.DropListed, row.MNSADCount-row.DropListed,
			row.UpdateReductionPct, row.ReplayReductionPct, row.ExecIncreasePct)
	}
	return nil
}
