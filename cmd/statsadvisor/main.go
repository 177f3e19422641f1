// Command statsadvisor recommends the statistics a workload needs, running
// the paper's algorithms over a freshly generated (or .tbl-loaded) skewed
// TPC-D database:
//
//	mnsa     Magic Number Sensitivity Analysis per query (§4, Figure 1)
//	mnsad    MNSA with non-essential detection / drop-list (§5.1)
//	offline  MNSA followed by the Shrinking Set algorithm (§5.2, §6)
//	all      create every §7.1 candidate statistic (no analysis; baseline)
//
// Usage:
//
//	ragsgen -workload U25-C-100 -db TPCD_2 -o w.sql
//	statsadvisor -db TPCD_2 -workload w.sql -mode offline
//	statsadvisor -db TPCD_4 -tpcd-orig -mode mnsad -verbose
//
// SIGINT/SIGTERM cancel the run cleanly: in-flight tuning stops at the next
// statement or build boundary, and the -metrics dump and -trace file are
// still written before exit. -timeout bounds the whole run the same way. A
// statistic build that fails for any reason other than cancellation degrades
// the affected queries to magic-number planning instead of aborting the run;
// the failures are listed after the summary line.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"autostats/internal/core"
	"autostats/internal/datagen"
	"autostats/internal/executor"
	"autostats/internal/histogram"
	"autostats/internal/obs"
	"autostats/internal/optimizer"
	"autostats/internal/stats"
	"autostats/internal/storage"
	"autostats/internal/workload"
)

var (
	dbName   = flag.String("db", "TPCD_2", "database: TPCD_0 | TPCD_2 | TPCD_4 | TPCD_MIX")
	scale    = flag.Float64("scale", 1, "database scale factor")
	dbSeed   = flag.Int64("db-seed", 42, "database generator seed")
	tblDir   = flag.String("tbl", "", "load database from .tbl files in this directory instead of generating")
	wlPath   = flag.String("workload", "", "workload SQL file (one statement per line)")
	tpcdOrig = flag.Bool("tpcd-orig", false, "use the built-in 17-query TPCD-ORIG workload")
	mode     = flag.String("mode", "mnsa", "mnsa | mnsad | offline | all")
	tPct     = flag.Float64("t", 20, "t-optimizer-cost equivalence threshold (percent)")
	eps      = flag.Float64("eps", 0.0005, "epsilon for the sensitivity extremes")
	single   = flag.Bool("single-column", false, "consider only single-column candidate statistics")
	cacheCap = flag.Int("plan-cache", 1024, "plan cache capacity (0 disables)")
	verbose  = flag.Bool("verbose", false, "per-query detail")
	saveTo   = flag.String("save-stats", "", "export the resulting statistics set as JSON")
	loadFrom = flag.String("load-stats", "", "import a statistics JSON snapshot before tuning")
	metrics  = flag.Bool("metrics", false, "dump the observability counters after the run")
	traceTo  = flag.String("trace", "", "write a JSONL span trace of the run to this file")
	timeout  = flag.Duration("timeout", 0, "abort the whole run after this long (0 = no deadline)")
)

func main() {
	flag.Parse()

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
			fmt.Fprintln(os.Stderr, "statsadvisor:", err)
			os.Exit(1)
		}
		traceFile = f
		tracer = obs.NewJSONLTracer(f)
		obs.Default.AddTracer(tracer)
	}

	err := run(ctx)

	// Observability output is flushed even when the run failed or was
	// interrupted: a canceled run still leaves its metrics and trace behind.
	if *metrics {
		fmt.Printf("\nmetrics:\n")
		if werr := obs.Default.WriteText(os.Stdout); werr != nil && err == nil {
			err = werr
		}
	}
	if tracer != nil {
		if terr := tracer.Err(); terr != nil && err == nil {
			err = fmt.Errorf("trace: %w", terr)
		}
		if cerr := traceFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
		fmt.Printf("trace written to %s\n", *traceTo)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "statsadvisor: interrupted:", err)
		} else {
			fmt.Fprintln(os.Stderr, "statsadvisor:", err)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	db, err := openDatabase(*tblDir, *dbName, *scale, *dbSeed)
	if err != nil {
		return err
	}
	w, err := openWorkload(db, *wlPath, *tpcdOrig)
	if err != nil {
		return err
	}
	queries := w.Queries()
	fmt.Printf("database %s (%d rows), workload %s: %d statements, %d queries\n",
		*dbName, db.TotalRows(), w.Name, len(w.Statements), len(queries))

	mgr := stats.NewManager(db, histogram.MaxDiff, 0)
	if *loadFrom != "" {
		f, err := os.Open(*loadFrom)
		if err != nil {
			return err
		}
		err = mgr.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("loaded %d statistics from %s\n", len(mgr.All()), *loadFrom)
	}
	sess := optimizer.NewSession(mgr)
	cache := optimizer.NewPlanCache(*cacheCap)
	sess.SetPlanCache(cache)
	cfg := core.DefaultConfig()
	cfg.T = *tPct
	cfg.Epsilon = *eps
	if *single {
		cfg.CandidateFn = core.SingleColumnCandidates
	}

	switch *mode {
	case "all":
		cands := core.WorkloadCandidates(queries, cfg.CandidateFn)
		for _, c := range cands {
			if err := ctx.Err(); err != nil {
				return err
			}
			if _, err := mgr.Create(c.Table, c.Columns); err != nil {
				return err
			}
		}
		fmt.Printf("created all %d candidate statistics\n", len(cands))
	case "mnsa", "mnsad":
		cfg.Drop = *mode == "mnsad"
		if *verbose {
			for i, q := range queries {
				r, err := core.RunMNSACtx(ctx, sess, q, cfg)
				if err != nil {
					return err
				}
				degr := ""
				if r.Degraded() {
					degr = fmt.Sprintf(" DEGRADED(%d builds failed)", len(r.BuildFailures))
				}
				fmt.Printf("Q%-3d created=%d droplisted=%d optcalls=%d (%s)%s\n",
					i+1, len(r.Created), len(r.DropListed), r.OptimizerCalls, r.TerminatedBy, degr)
			}
		} else {
			wr, err := core.RunMNSAWorkloadCtx(ctx, sess, queries, cfg)
			if err != nil {
				return err
			}
			fmt.Printf("MNSA%s: created %d statistics with %d optimizer calls\n",
				map[bool]string{true: "/D", false: ""}[cfg.Drop], len(wr.Created), wr.OptimizerCalls)
			reportDegraded(wr.BuildFailures)
		}
	case "offline":
		rep, err := core.OfflineTuneCtx(ctx, sess, queries, cfg, nil)
		if err != nil {
			return err
		}
		fmt.Printf("offline tune: MNSA created %d, shrinking set kept %d (essential), drop-listed %d\n",
			len(rep.MNSA.Created), len(rep.Shrink.Kept), len(rep.DropListed))
		reportDegraded(rep.BuildFailures())
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	acct := mgr.Snapshot()
	fmt.Printf("\nrecommended statistics (%d, build cost %.0f units, %v):\n",
		len(mgr.Maintained()), acct.TotalBuildCost, acct.TotalBuildTime.Round(1000))
	for _, s := range mgr.Maintained() {
		fmt.Printf("  CREATE STATISTICS %s  -- %d rows, %d distinct\n", s.ID, s.Data.Rows, s.Data.Leading.Distinct)
	}
	if dl := mgr.DropList(); len(dl) > 0 {
		fmt.Printf("drop-list (%d, not maintained):\n", len(dl))
		for _, s := range dl {
			fmt.Printf("  %s\n", s.ID)
		}
	}
	fmt.Printf("maintenance cost per refresh cycle: %.0f units\n", mgr.MaintenanceCostUnits())
	if cs := cache.Stats(); cs.Hits+cs.Misses > 0 {
		fmt.Printf("plan cache: %d hits / %d misses (%.0f%% hit rate), %d evictions, %d cached\n",
			cs.Hits, cs.Misses, 100*cs.HitRate(), cs.Evictions, cs.Size)
	}

	// Execute the workload under the recommendation and report cost.
	ex := executor.New(db)
	total := 0.0
	for _, stmt := range w.Statements {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := ex.RunStatement(sess, stmt)
		if err != nil {
			return err
		}
		total += res.Cost
	}
	fmt.Printf("workload execution cost under recommendation: %.0f units\n", total)

	if *saveTo != "" {
		f, err := os.Create(*saveTo)
		if err != nil {
			return err
		}
		err = mgr.Save(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("saved %d statistics to %s\n", len(mgr.All()), *saveTo)
	}
	return nil
}

// reportDegraded summarizes degraded-mode tuning: which builds failed and
// with what error.
func reportDegraded(failures []core.BuildFailure) {
	if len(failures) == 0 {
		return
	}
	fmt.Printf("DEGRADED: %d statistic build(s) failed; affected queries were planned on magic numbers:\n", len(failures))
	for _, f := range failures {
		fmt.Printf("  %s (%v)\n", f.ID, f.Err)
	}
}

func openDatabase(tblDir, dbName string, scale float64, seed int64) (*storage.Database, error) {
	if tblDir != "" {
		return datagen.LoadTbl(tblDir)
	}
	cfg, err := datagen.ConfigByName(dbName)
	if err != nil {
		return nil, err
	}
	cfg.Scale = scale
	cfg.Seed = seed
	return datagen.Generate(cfg)
}

func openWorkload(db *storage.Database, wlPath string, tpcdOrig bool) (*workload.Workload, error) {
	switch {
	case tpcdOrig:
		return workload.TPCDOrig(db.Schema)
	case wlPath != "":
		f, err := os.Open(wlPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return workload.Load(db.Schema, f)
	default:
		return nil, fmt.Errorf("pass -workload <file> or -tpcd-orig")
	}
}
