// Command autostatsql is an interactive shell over a skewed TPC-D database
// with automatic statistics management. SQL statements execute directly;
// dot-commands drive the paper's machinery:
//
//	EXPLAIN <select>       show the chosen plan without executing
//	TUNE <select>          run MNSA for the query (creates statistics)
//	.stats                 list statistics (drop-listed ones marked)
//	.auto on|off           toggle on-the-fly mode (MNSA before every SELECT)
//	.maintenance           run the update/drop maintenance policy once
//	.health <addr>         probe a daemon's /healthz and /readyz probes
//	.help                  command summary
//	.quit                  exit
//
// Usage:
//
//	autostatsql -db TPCD_2 -scale 0.5
//
// A statement whose statistics cannot be built still runs, on a degraded
// magic-number plan (shown as [degraded: ...]). SIGINT/SIGTERM cancel the
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
		dbName = flag.String("db", "TPCD_2", "database: TPCD_0 | TPCD_2 | TPCD_4 | TPCD_MIX")
		scale  = flag.Float64("scale", 0.5, "database scale factor")
		seed   = flag.Int64("seed", 42, "generator seed")
	)
	flag.Parse()

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
	fmt.Printf("autostatsql — %s at scale %.2f. Type .help for commands.\n", *dbName, *scale)
	if err := runREPL(ctx, sys, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "autostatsql:", err)
		os.Exit(1)
	}
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
			plan, err := sys.Explain(ctx, strings.TrimSpace(line[len("EXPLAIN "):]))
			if err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprint(out, plan)
			}
		case hasPrefixFold(line, "TUNE "):
			rep, err := sys.TuneQuery(ctx, strings.TrimSpace(line[len("TUNE "):]), autostats.TuneOptions{})
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
		res, err = sys.ExecCtx(ctx, sql)
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
		rep, err := sys.RunMaintenance(ctx)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		fmt.Fprintf(out, "maintenance: %d tables refreshed, %d statistics dropped\n",
			rep.TablesRefreshed, rep.StatsDropped)
		for _, f := range rep.RefreshFailures {
			fmt.Fprintf(out, "refresh of %s failed: %v\n", f.Table, f.Err)
		}
	case ".health":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: .health <daemon-metrics-addr>   (e.g. .health 127.0.0.1:7745)")
			break
		}
		probeHealth(out, fields[1])
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
