// Quickstart: generate a skewed TPC-D database, watch a query plan change
// (and get cheaper) once MNSA creates exactly the statistics the query
// needs — the paper's §1 observation in thirty lines.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"autostats"
)

func main() {
	ctx := context.Background()
	// A moderately skewed (z = 2) TPC-D instance, ~4.4k rows.
	sys, err := autostats.GenerateTPCD(autostats.TPCDOptions{Scale: 0.5, Skew: 2})
	if err != nil {
		log.Fatal(err)
	}

	const sql = `SELECT * FROM lineitem, orders
		WHERE l_orderkey = o_orderkey AND l_quantity > 45 AND o_totalprice > 400000`

	fmt.Println("--- plan with NO statistics (magic numbers only) ---")
	before, err := sys.ExecCtx(ctx, sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(before.Plan)
	fmt.Printf("estimated cost %.0f, actual execution cost %.0f, %d rows\n\n",
		before.EstimatedCost, before.ExecCost, len(before.Rows))

	// Magic Number Sensitivity Analysis: create statistics only until the
	// plan is provably insensitive to the rest (t = 20%, ε = 0.0005).
	rep, err := sys.TuneQuery(ctx, sql, autostats.TuneOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MNSA created %d statistics with %d optimizer calls:\n", len(rep.Created), rep.OptimizerCalls)
	for _, id := range rep.Created {
		fmt.Println("  ", id)
	}

	fmt.Println("\n--- plan WITH statistics ---")
	after, err := sys.ExecCtx(ctx, sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(after.Plan)
	fmt.Printf("estimated cost %.0f, actual execution cost %.0f, %d rows\n",
		after.EstimatedCost, after.ExecCost, len(after.Rows))
	fmt.Printf("\nexecution cost: %.0f -> %.0f (%.1fx cheaper)\n",
		before.ExecCost, after.ExecCost, before.ExecCost/after.ExecCost)
}
