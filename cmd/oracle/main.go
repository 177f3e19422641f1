// Command oracle drives the randomized correctness harness in
// internal/oracle from the command line. Two modes:
//
// Short mode (default) runs every oracle once from a fixed seed — the same
// deterministic sweep the tier-1 tests run, useful for reproducing a CI
// failure locally:
//
//	oracle -seed 7 -queries 1000
//
// Long mode loops over fresh seeds until a time budget is exhausted — the
// CI nightly soak. Every failure prints the seed that produced it, so a
// nightly red run is a one-line local repro:
//
//	oracle -duration 10m
//
// The statistic build's bitwise identity with the single-pass histogram
// reference is not one of these oracles: TestBuildIdentity in internal/stats
// checks it over the same TPC-D data shapes on every test run.
//
// -chaos runs the network chaos sweep in place of the correctness oracles,
// in either mode: client sessions against an in-process server behind a
// fault-injecting proxy. -addr host:port implies the sweep and points the
// same sessions at a daemon already listening there, with no proxy; every
// request must then succeed:
//
//	oracle -addr 127.0.0.1:7744 -sessions 120 -requests 4
//
// Any failing seed makes the process exit 1; in long mode
// the failing seeds are also written to -failure-file (default
// oracle-failures.txt) for artifact upload. If that file cannot be written,
// the error goes to stderr and the exit status is still 1. SIGINT/SIGTERM
// stop the soak at the next seed boundary with exit status 1; seeds that
// already failed are still written to -failure-file before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"autostats/internal/oracle"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "starting seed (short mode runs exactly this seed)")
		queries  = flag.Int("queries", 1000, "differential sweep size per seed")
		meta     = flag.Int("meta", 20, "queries per metamorphic oracle per seed")
		samples  = flag.Int("samples", 3, "interior samples per query in the bracket oracle")
		scale    = flag.Float64("scale", 0.05, "database scale factor")
		zipf     = flag.Float64("zipf", 2, "data skew parameter z")
		simple   = flag.Bool("simple", false, "restrict the workload to queries over at most 2 tables")
		duration = flag.Duration("duration", 0, "long mode: loop over seeds until this much time has passed")
		failFile = flag.String("failure-file", "oracle-failures.txt", "long mode: write failing seeds here")
		chaosRun = flag.Bool("chaos", false, "run the network chaos sweep instead of the correctness oracles")
		addr     = flag.String("addr", "", "run the sweep against the daemon at this host:port, with no proxy; every request must succeed (implies -chaos)")
		sessions = flag.Int("sessions", 16, "chaos mode: concurrent client sessions")
		requests = flag.Int("requests", 20, "chaos mode: requests per session")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	run := func(s int64) (int, error) {
		return runSeed(s, *queries, *meta, *samples, *scale, *zipf, *simple)
	}
	mode := ""
	switch {
	case *addr != "":
		mode = "-addr " + *addr
	case *chaosRun:
		mode = "-chaos"
	}
	if mode != "" {
		run = func(s int64) (int, error) { return runChaosSeed(s, *sessions, *requests, *addr) }
	}
	code := soak(ctx, mode, *seed, *duration, *failFile, run)
	stop()
	os.Exit(code)
}

// soak runs run on seed and, with a positive duration, on each following
// seed until the duration has passed (long mode). SIGINT or SIGTERM stop it
// at the next seed boundary. In long mode the failing seeds are written to
// failFile. It returns the exit status: 1 when a seed failed or the run was
// interrupted. run returns the seed's finding count; an error means the
// harness itself broke, and fails the seed too. mode is the flag that
// selected the chaos sweep ("-chaos" or "-addr host:port"), empty for the
// correctness oracles; the repro line repeats it.
func soak(ctx context.Context, mode string, seed int64, duration time.Duration, failFile string, run func(seed int64) (int, error)) int {
	label, repro := "", "oracle -seed <n>"
	if mode != "" {
		label, repro = "chaos ", "oracle "+mode+" -seed <n>"
	}
	deadline := time.Now().Add(duration)
	var failed []int64
	s := seed
	for {
		findings, err := run(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oracle: %sseed %d: %v\n", label, s, err)
		}
		if err != nil || findings > 0 {
			failed = append(failed, s)
		}
		s++
		if duration <= 0 || !time.Now().Before(deadline) || ctx.Err() != nil {
			break
		}
	}
	ran := s - seed
	if len(failed) > 0 {
		if duration > 0 {
			if err := writeSeeds(failFile, failed); err != nil {
				fmt.Fprintf(os.Stderr, "oracle: writing failing seeds: %v\n", err)
			} else {
				repro += "; seeds in " + failFile
			}
		}
		fmt.Printf("oracle: %s%d/%d seeds FAILED: %v (repro: %s)\n", label, len(failed), ran, failed, repro)
		return 1
	}
	if ctx.Err() != nil {
		fmt.Printf("oracle: %sinterrupted after %d clean seeds\n", label, ran)
		return 1
	}
	fmt.Printf("oracle: %s%d seeds clean\n", label, ran)
	return 0
}

// writeSeeds writes one seed per line to path.
func writeSeeds(path string, seeds []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, s := range seeds {
		if _, err := fmt.Fprintf(f, "%d\n", s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// runChaosSeed runs one chaos sweep and prints its findings and summary.
func runChaosSeed(seed int64, sessions, requests int, addr string) (int, error) {
	start := time.Now()
	rep, err := oracle.RunChaosSweep(oracle.ChaosOptions{
		Seed:               seed,
		Sessions:           sessions,
		RequestsPerSession: requests,
		Addr:               addr,
	})
	if err != nil {
		return 0, err
	}
	for _, f := range rep.Findings {
		fmt.Printf("FAIL %s\n", f)
	}
	where := fmt.Sprintf("direct to %s", addr)
	if addr == "" {
		where = fmt.Sprintf("proxy: %d resets %d torn %d corrupt | drain: adm %d cmp %d drop %d",
			rep.Proxy.Resets, rep.Proxy.Torn, rep.Proxy.Corrupted,
			rep.Drain.Admitted, rep.Drain.Completed, rep.Drain.Dropped)
	}
	fmt.Printf("chaos seed %-6d %4d requests (%d ok, %d typed, %d transport, %d hangs) | %s | %d findings | %.1fs\n",
		seed, rep.Requests, rep.OK, rep.TypedErrs, rep.Transport, rep.Hangs,
		where, len(rep.Findings), time.Since(start).Seconds())
	return len(rep.Findings), nil
}

// runSeed runs every oracle once for the given seed and prints every
// finding. It returns the finding count.
func runSeed(seed int64, queries, meta, samples int, scale, zipf float64, simple bool) (int, error) {
	start := time.Now()
	h, err := oracle.New(oracle.Options{Seed: seed, Scale: scale, Zipf: zipf, SimpleQueries: simple})
	if err != nil {
		return 0, fmt.Errorf("harness: %w", err)
	}

	findings := 0
	report := func(fs []oracle.Finding) {
		for _, f := range fs {
			fmt.Printf("FAIL %s\n", f)
		}
		findings += len(fs)
	}

	diff, err := h.RunDifferential(queries)
	if err != nil {
		return findings, fmt.Errorf("differential: %w", err)
	}
	report(diff.Findings)

	mono, err := h.RunMonotonicity(meta)
	if err != nil {
		return findings, fmt.Errorf("monotonicity: %w", err)
	}
	report(mono.Findings)

	brk, err := h.RunExtremeBracket(meta, samples)
	if err != nil {
		return findings, fmt.Errorf("bracket: %w", err)
	}
	report(brk.Findings)

	shr, err := h.RunShrinkPreservation(meta)
	if err != nil {
		return findings, fmt.Errorf("shrink: %w", err)
	}
	report(shr.Findings)

	deg, err := h.RunDegradedRecovery(meta)
	if err != nil {
		return findings, fmt.Errorf("degraded-recovery: %w", err)
	}
	report(deg.Findings)

	fmt.Printf("seed %-6d %4d queries (%d dml, %d skipped, %d mnsa, %d maint) | mono %d asserts | bracket %d asserts | shrink %d plans | degraded %d/%d (%d inj) | %d findings | %.1fs\n",
		seed, diff.Queries, diff.DML, diff.Skipped, diff.MNSARuns, diff.MaintenanceRuns,
		mono.Assertions, brk.Assertions, shr.Checked,
		deg.DegradedPlans, deg.Queries, deg.Injections,
		findings, time.Since(start).Seconds())
	return findings, nil
}
