// Autotune: the §6 "most aggressive" policy end to end — a self-tuning
// server processing a live decision-support statement stream. Every
// incoming SELECT first passes through MNSA (so statistics appear on the
// fly, but only the essential ones), DML drives the per-table modification
// counters, and the SQL Server 7.0-style maintenance policy refreshes
// statistics on heavily modified tables.
//
//	go run ./examples/autotune
package main

import (
	"context"
	"fmt"
	"log"

	"autostats"
)

func main() {
	ctx := context.Background()
	sys, err := autostats.GenerateTPCD(autostats.TPCDOptions{Scale: 0.5, Mix: true, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// A mixed stream: 25% inserts/updates/deletes, complex join queries —
	// the paper's U25-C workload shape.
	stream, err := sys.GenerateWorkload(autostats.WorkloadOptions{
		Count: 120, UpdatePct: 25, Complex: true, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}

	var totalCost float64
	lastStats := 0
	for i, sql := range stream {
		res, err := sys.ProcessStatementCtx(ctx, sql)
		if err != nil {
			log.Fatalf("statement %d (%s): %v", i, sql, err)
		}
		totalCost += res.ExecCost
		if n := len(sys.Statistics()); n != lastStats {
			fmt.Printf("[%3d] statistics: %d -> %d (triggered by %.60s...)\n", i, lastStats, n, sql)
			lastStats = n
		}
	}

	fmt.Printf("\nprocessed %d statements, total execution cost %.0f units\n", len(stream), totalCost)
	fmt.Printf("statistics in place: %d\n", len(sys.Statistics()))
	for _, st := range sys.Statistics() {
		marker := ""
		if st.InDropList {
			marker = "  (drop-list)"
		}
		if st.Updates > 0 {
			marker += fmt.Sprintf("  refreshed %dx by maintenance", st.Updates)
		}
		fmt.Printf("  %-45s %6d rows %5d distinct%s\n", st.ID, st.Rows, st.Distinct, marker)
	}

	// The payoff of automatic management: replaying the same stream creates
	// nothing new — the system has converged.
	before := len(sys.Statistics())
	for _, sql := range stream {
		if _, err := sys.ProcessStatementCtx(ctx, sql); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\nreplayed the stream: statistics %d -> %d (converged)\n", before, len(sys.Statistics()))
}
