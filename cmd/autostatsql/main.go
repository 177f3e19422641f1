// Command autostatsql is an interactive shell over a skewed TPC-D database
// with automatic statistics management. SQL statements execute directly;
// dot-commands drive the paper's machinery:
//
//	EXPLAIN <select>       show the chosen plan without executing
//	TUNE <select>          run MNSA for the query (creates statistics)
//	.stats                 list statistics (drop-listed ones marked)
//	.auto on|off           toggle on-the-fly mode (MNSA before every SELECT)
//	.maintenance           run the update/drop maintenance policy once
//	.breakers              show circuit breaker states (resilience mode)
//	.health <addr>         probe a daemon's /healthz and /readyz probes
//	.help                  command summary
//	.quit                  exit
//
// Usage:
//
//	autostatsql -db TPCD_2 -scale 0.5
//	autostatsql -retries 2 -build-timeout 2s    # resilience mode
//
// With -retries >= 0 the resilience layer is enabled: statistic builds that
// fail are retried with backoff, persistently failing tables trip per-table
// circuit breakers, and affected statements still run on degraded
// magic-number plans (shown as [degraded: ...]). SIGINT/SIGTERM cancel the
// in-flight statement and exit the shell cleanly.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"autostats"
)

func main() {
	var (
		dbName   = flag.String("db", "TPCD_2", "database: TPCD_0 | TPCD_2 | TPCD_4 | TPCD_MIX")
		scale    = flag.Float64("scale", 0.5, "database scale factor")
		seed     = flag.Int64("seed", 42, "generator seed")
		retries  = flag.Int("retries", -1, "enable the resilience layer, retrying each failed statistic build this many times (-1 = resilience off)")
		buildTO  = flag.Duration("build-timeout", 0, "per-statistic build attempt timeout (needs -retries >= 0; 0 = unbounded)")
		incr     = flag.Bool("incremental", false, "incremental statistics maintenance: refreshes fold logged row deltas into histograms instead of rescanning")
		foldFrac = flag.Float64("max-fold-fraction", 0, "folded-rows fraction above which a refresh rebuilds from a full scan (needs -incremental; 0 = default 0.1)")
		buildMem = flag.Int64("build-mem-budget", 0, "statistic-build memory budget in bytes: finished partials past the budget spill to temp files (0 = unbounded)")
	)
	flag.Parse()
	if err := checkFlagDependencies(*retries, *incr); err != nil {
		fmt.Fprintln(os.Stderr, "autostatsql:", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var opts autostats.TPCDOptions
	opts.Scale = *scale
	opts.Seed = *seed
	switch *dbName {
	case "TPCD_0":
		opts.Skew = 0
	case "TPCD_2":
		opts.Skew = 2
	case "TPCD_4":
		opts.Skew = 4
	case "TPCD_MIX":
		opts.Mix = true
	default:
		fmt.Fprintf(os.Stderr, "autostatsql: unknown database %q\n", *dbName)
		os.Exit(2)
	}
	sys, err := autostats.GenerateTPCD(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "autostatsql:", err)
		os.Exit(1)
	}
	if *retries >= 0 {
		sys.EnableResilience(autostats.ResilienceOptions{
			Retries:      *retries,
			BuildTimeout: *buildTO,
			Seed:         *seed,
		})
		fmt.Printf("resilience ON: %d retries per build, build timeout %v\n", *retries, *buildTO)
	}
	if *incr {
		if err := sys.EnableIncrementalMaintenance(*foldFrac); err != nil {
			fmt.Fprintln(os.Stderr, "autostatsql:", err)
			os.Exit(2)
		}
		fmt.Printf("incremental maintenance ON: refreshes fold row deltas (max fold fraction %v)\n",
			orDefaultFrac(*foldFrac))
	}
	if *buildMem != 0 {
		if err := sys.SetBuildMemoryBudget(*buildMem); err != nil {
			fmt.Fprintln(os.Stderr, "autostatsql:", err)
			os.Exit(2)
		}
		fmt.Printf("statistic builds spill past a %d-byte memory budget\n", *buildMem)
	}
	fmt.Printf("autostatsql — %s at scale %.2f. Type .help for commands.\n", *dbName, *scale)
	if err := runREPL(ctx, sys, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "autostatsql:", err)
		os.Exit(1)
	}
}

// checkFlagDependencies rejects a flag given on the command line without the
// flag it depends on, which would otherwise be silently ignored.
func checkFlagDependencies(retries int, incremental bool) error {
	var err error
	flag.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case f.Name == "build-timeout" && retries < 0:
			err = fmt.Errorf("-build-timeout needs -retries >= 0")
		case f.Name == "max-fold-fraction" && !incremental:
			err = fmt.Errorf("-max-fold-fraction needs -incremental")
		}
	})
	return err
}

// orDefaultFrac renders the effective fold fraction (0 means the default).
func orDefaultFrac(f float64) float64 {
	if f <= 0 {
		return autostats.DefaultMaxFoldFraction
	}
	return f
}

// maxRowsShown caps result printing.
const maxRowsShown = 20

// runREPL drives the shell; it is I/O-parameterized for testing. ctx cancels
// in-flight statement processing (MNSA, builds, maintenance) and ends the
// loop at the next prompt.
func runREPL(ctx context.Context, sys *autostats.System, in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	autoMode := false
	prompt := func() { fmt.Fprint(out, "> ") }
	prompt()
	for sc.Scan() {
		if ctx.Err() != nil {
			fmt.Fprintln(out, "interrupted")
			return nil
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case strings.HasPrefix(line, "."):
			if quit := dotCommand(ctx, sys, out, line, &autoMode); quit {
				return nil
			}
		case hasPrefixFold(line, "EXPLAIN "):
			plan, err := sys.Explain(strings.TrimSpace(line[len("EXPLAIN "):]))
			if err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprint(out, plan)
			}
		case hasPrefixFold(line, "TUNE "):
			rep, err := sys.TuneQueryCtx(ctx, strings.TrimSpace(line[len("TUNE "):]), autostats.TuneOptions{})
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			fmt.Fprintf(out, "created %d statistics (%d optimizer calls):\n", len(rep.Created), rep.OptimizerCalls)
			for _, id := range rep.Created {
				fmt.Fprintln(out, "  ", id)
			}
			if rep.Degraded {
				fmt.Fprintf(out, "DEGRADED: %d build(s) failed:\n", len(rep.BuildFailures))
				for _, bf := range rep.BuildFailures {
					fmt.Fprintln(out, "  ", bf)
				}
			}
		default:
			runStatement(ctx, sys, out, line, autoMode)
		}
		prompt()
	}
	return sc.Err()
}

func hasPrefixFold(s, prefix string) bool {
	return len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix)
}

func runStatement(ctx context.Context, sys *autostats.System, out io.Writer, sql string, autoMode bool) {
	var res *autostats.QueryResult
	var err error
	if autoMode {
		res, err = sys.ProcessStatementCtx(ctx, sql)
	} else {
		res, err = sys.Exec(sql)
	}
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	if len(res.Degraded) > 0 {
		fmt.Fprintf(out, "[degraded: %s]\n", strings.Join(res.Degraded, ", "))
	}
	if res.Rows == nil && res.Columns == nil {
		fmt.Fprintf(out, "ok: %d row(s) affected, cost %.0f\n", res.Affected, res.ExecCost)
		return
	}
	fmt.Fprintln(out, strings.Join(res.Columns, " | "))
	for i, r := range res.Rows {
		if i == maxRowsShown {
			fmt.Fprintf(out, "... (%d more rows)\n", len(res.Rows)-maxRowsShown)
			break
		}
		fmt.Fprintln(out, strings.Join(r, " | "))
	}
	fmt.Fprintf(out, "(%d rows, exec cost %.0f, estimated %.0f)\n", len(res.Rows), res.ExecCost, res.EstimatedCost)
}

func dotCommand(ctx context.Context, sys *autostats.System, out io.Writer, line string, autoMode *bool) (quit bool) {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".quit", ".exit":
		return true
	case ".help":
		fmt.Fprint(out, `SQL statements run directly. Commands:
  EXPLAIN <select>   show the plan without executing
  TUNE <select>      run MNSA for the query
  .stats             list statistics
  .auto on|off       toggle on-the-fly statistics management
  .maintenance       run the maintenance policy once
  .breakers          show circuit breaker states (resilience mode)
  .health <addr>     probe a daemon's /healthz and /readyz at its metrics address
  .quit              exit
`)
	case ".stats":
		infos := sys.Statistics()
		if len(infos) == 0 {
			fmt.Fprintln(out, "(no statistics)")
		}
		for _, si := range infos {
			marker := ""
			if si.InDropList {
				marker = "  [drop-list]"
			}
			fmt.Fprintf(out, "%-45s %7d rows %6d distinct %3d buckets%s\n",
				si.ID, si.Rows, si.Distinct, si.Buckets, marker)
		}
	case ".auto":
		if len(fields) == 2 && fields[1] == "on" {
			*autoMode = true
			fmt.Fprintln(out, "on-the-fly statistics management ON")
		} else if len(fields) == 2 && fields[1] == "off" {
			*autoMode = false
			fmt.Fprintln(out, "on-the-fly statistics management OFF")
		} else {
			fmt.Fprintln(out, "usage: .auto on|off")
		}
	case ".maintenance":
		rep, err := sys.RunMaintenanceCtx(ctx)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		fmt.Fprintf(out, "maintenance: %d tables refreshed, %d statistics dropped\n",
			rep.TablesRefreshed, rep.StatsDropped)
		if rep.TablesSkipped > 0 || len(rep.RefreshFailures) > 0 {
			fmt.Fprintf(out, "degraded pass: %d tables skipped (breaker open), %d refresh failures\n",
				rep.TablesSkipped, len(rep.RefreshFailures))
		}
	case ".health":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: .health <daemon-metrics-addr>   (e.g. .health 127.0.0.1:7745)")
			break
		}
		probeHealth(out, fields[1])
	case ".breakers":
		if !sys.ResilienceEnabled() {
			fmt.Fprintln(out, "resilience layer is off (start with -retries >= 0)")
			break
		}
		states := sys.BreakerStates()
		if len(states) == 0 {
			fmt.Fprintln(out, "(no table has been gated yet)")
		}
		for _, ts := range states {
			fmt.Fprintf(out, "%-15s %-9s %d trips\n", ts.Table, ts.State, ts.Trips)
		}
	default:
		fmt.Fprintf(out, "unknown command %s (try .help)\n", fields[0])
	}
	return false
}

// probeHealth hits a running autostatsd's ops endpoints (-metrics-addr) and
// reports liveness and readiness — the shell-side view of the daemon's
// /healthz and /readyz probes.
func probeHealth(out io.Writer, addr string) {
	client := &http.Client{Timeout: 2 * time.Second}
	for _, probe := range []string{"healthz", "readyz"} {
		resp, err := client.Get(fmt.Sprintf("http://%s/%s", addr, probe))
		if err != nil {
			fmt.Fprintf(out, "%-8s unreachable: %v\n", probe, err)
			continue
		}
		resp.Body.Close()
		status := "ok"
		if resp.StatusCode != http.StatusOK {
			status = "NOT ok"
		}
		fmt.Fprintf(out, "%-8s %s (HTTP %d)\n", probe, status, resp.StatusCode)
	}
}
