// Command tpcdgen generates a skewed TPC-D database and writes it as
// pipe-delimited .tbl files — the Go counterpart of the paper's modified
// dbgen ([17]: "TPC-D Data Generation with Skew"). Every non-key column is
// drawn from a Zipfian distribution with parameter z between 0 (uniform)
// and 4 (highly skewed); -mix assigns each column its own random z.
//
// SIGINT/SIGTERM cancel generation: an interrupted run removes any .tbl
// files it already wrote, so a partial dataset is never left behind to be
// mistaken for a complete one.
//
// Usage:
//
//	tpcdgen -z 2 -scale 1 -o ./tpcd_z2
//	tpcdgen -mix -seed 7 -o ./tpcd_mix
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"autostats/internal/datagen"
)

func main() {
	var (
		z     = flag.Float64("z", 0, "Zipfian skew parameter for all columns (0..4)")
		mix   = flag.Bool("mix", false, "assign each column a random z in [0,4] (overrides -z)")
		scale = flag.Float64("scale", 1, "scale factor (1.0 = lineitem 6000 rows)")
		seed  = flag.Int64("seed", 42, "generator seed")
		out   = flag.String("o", "tpcd", "output directory for .tbl files")
	)
	flag.Parse()

	if *z < 0 || *z > 4 {
		fmt.Fprintln(os.Stderr, "tpcdgen: -z must be between 0 and 4")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	db, err := datagen.GenerateCtx(ctx, datagen.Config{Scale: *scale, Z: *z, Mix: *mix, Seed: *seed})
	if err != nil {
		fatal(ctx, err)
	}
	if err := datagen.WriteTbl(ctx, db, *out); err != nil {
		fatal(ctx, err)
	}
	for _, name := range db.Schema.TableNames() {
		td, err := db.Table(name)
		if err != nil {
			fatal(ctx, err)
		}
		fmt.Printf("%-10s %7d rows -> %s/%s.tbl\n", name, td.RowCount(), *out, name)
	}
}

func fatal(ctx context.Context, err error) {
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "tpcdgen: interrupted; partial output removed")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "tpcdgen:", err)
	os.Exit(1)
}
