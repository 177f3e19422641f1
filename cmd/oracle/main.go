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
// On failure the offending seeds are also written to -failure-file (default
// oracle-failures.txt) for artifact upload, and the process exits 1.
// SIGINT/SIGTERM stop the soak at the next seed boundary; seeds that already
// failed are still written to -failure-file before exit.
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
		simple   = flag.Bool("simple", false, "restrict the workload to single-table queries")
		duration = flag.Duration("duration", 0, "long mode: loop over seeds until this much time has passed")
		failFile = flag.String("failure-file", "oracle-failures.txt", "long mode: write failing seeds here")
		chaosRun = flag.Bool("chaos", false, "run the network chaos sweep instead of the correctness oracles")
		sessions = flag.Int("sessions", 16, "chaos mode: concurrent client sessions")
		requests = flag.Int("requests", 20, "chaos mode: requests per session")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *chaosRun {
		runChaosMode(ctx, *seed, *sessions, *requests, *duration, *failFile)
		return
	}

	if *duration <= 0 {
		findings, err := runSeed(*seed, *queries, *meta, *samples, *scale, *zipf, *simple)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oracle:", err)
			os.Exit(1)
		}
		if findings > 0 {
			fmt.Printf("oracle: seed %d FAILED with %d findings\n", *seed, findings)
			os.Exit(1)
		}
		fmt.Printf("oracle: seed %d clean\n", *seed)
		return
	}

	deadline := time.Now().Add(*duration)
	var failed []int64
	interrupted := false
	s := *seed
	for time.Now().Before(deadline) {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		findings, err := runSeed(s, *queries, *meta, *samples, *scale, *zipf, *simple)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oracle: seed %d: %v\n", s, err)
			failed = append(failed, s)
		} else if findings > 0 {
			failed = append(failed, s)
		}
		s++
	}
	ran := s - *seed
	if len(failed) > 0 {
		f, err := os.Create(*failFile)
		if err == nil {
			for _, fs := range failed {
				fmt.Fprintf(f, "%d\n", fs)
			}
			f.Close()
		}
		fmt.Printf("oracle: %d/%d seeds FAILED: %v (repro: oracle -seed <n>; seeds in %s)\n",
			len(failed), ran, failed, *failFile)
		os.Exit(1)
	}
	if interrupted {
		fmt.Printf("oracle: interrupted after %d clean seeds\n", ran)
		os.Exit(1)
	}
	fmt.Printf("oracle: %d seeds clean in %s\n", ran, *duration)
}

// runChaosMode runs the network chaos sweep: a real server behind the
// fault-injecting proxy, robustness invariants asserted after the swarm.
// With -duration it loops over fresh seeds until the budget is spent (the
// nightly soak); otherwise it runs exactly -seed once (the CI smoke).
func runChaosMode(ctx context.Context, seed int64, sessions, requests int, duration time.Duration, failFile string) {
	deadline := time.Now().Add(duration)
	var failed []int64
	s := seed
	for {
		findings, err := runChaosSeed(s, sessions, requests)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oracle: chaos seed %d: %v\n", s, err)
			failed = append(failed, s)
		} else if findings > 0 {
			failed = append(failed, s)
		}
		s++
		if duration <= 0 || !time.Now().Before(deadline) || ctx.Err() != nil {
			break
		}
	}
	ran := s - seed
	if len(failed) > 0 {
		if f, err := os.Create(failFile); err == nil {
			for _, fs := range failed {
				fmt.Fprintf(f, "%d\n", fs)
			}
			f.Close()
		}
		fmt.Printf("oracle: chaos %d/%d seeds FAILED: %v (repro: oracle -chaos -seed <n>)\n",
			len(failed), ran, failed)
		os.Exit(1)
	}
	fmt.Printf("oracle: chaos %d seeds clean\n", ran)
}

// runChaosSeed runs one chaos sweep and prints its findings and summary.
func runChaosSeed(seed int64, sessions, requests int) (int, error) {
	start := time.Now()
	rep, err := oracle.RunChaosSweep(oracle.ChaosOptions{
		Seed:               seed,
		Sessions:           sessions,
		RequestsPerSession: requests,
	})
	if err != nil {
		return 0, err
	}
	for _, f := range rep.Findings {
		fmt.Printf("FAIL %s\n", f)
	}
	fmt.Printf("chaos seed %-6d %4d requests (%d ok, %d typed, %d transport, %d hangs) | proxy: %d resets %d torn %d corrupt | drain: adm %d cmp %d drop %d | %d findings | %.1fs\n",
		seed, rep.Requests, rep.OK, rep.TypedErrs, rep.Transport, rep.Hangs,
		rep.Proxy.Resets, rep.Proxy.Torn, rep.Proxy.Corrupted,
		rep.Drain.Admitted, rep.Drain.Completed, rep.Drain.Dropped,
		len(rep.Findings), time.Since(start).Seconds())
	return len(rep.Findings), nil
}

// runSeed runs all five oracles once for the given seed and prints every
// finding. It returns the finding count so the caller can decide the exit
// status (an error means the harness itself broke, not that an oracle
// disagreed).
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

	strm, err := h.RunStreamingSweep()
	if err != nil {
		return findings, fmt.Errorf("streaming: %w", err)
	}
	report(strm.Findings)

	fmt.Printf("seed %-6d %4d queries (%d dml, %d skipped, %d mnsa, %d maint) | mono %d asserts | bracket %d asserts | shrink %d plans | degraded %d/%d (%d inj) | stream %d builds %d merges | %d findings | %.1fs\n",
		seed, diff.Queries, diff.DML, diff.Skipped, diff.MNSARuns, diff.MaintenanceRuns,
		mono.Assertions, brk.Assertions, shr.Checked,
		deg.DegradedPlans, deg.Queries, deg.Injections,
		strm.Builds, strm.MergeOrders,
		findings, time.Since(start).Seconds())
	return findings, nil
}
