// Dropstats: the update-sensitive scenario of §5-§6. An update-heavy system
// cannot afford to maintain every statistic: each refresh rescans the table.
// MNSA/D detects non-essential statistics while creating them, the offline
// Shrinking Set pass keeps only what every plan needs (one removal at a
// time, so not minimal in general), and the drop-list keeps
// maintenance cost down without hurting plans.
//
//	go run ./examples/dropstats
package main

import (
	"context"
	"fmt"
	"log"

	"autostats"
)

func main() {
	ctx := context.Background()
	const workloadSeed = 5

	// Arm A: plain MNSA — keep everything it creates.
	keep, err := autostats.GenerateTPCD(autostats.TPCDOptions{Scale: 0.5, Skew: 2})
	if err != nil {
		log.Fatal(err)
	}
	stream, err := keep.GenerateWorkload(autostats.WorkloadOptions{
		Count: 80, UpdatePct: 50, Complex: true, Seed: workloadSeed,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := keep.TuneWorkloadCtx(ctx, stream, autostats.TuneOptions{}); err != nil {
		log.Fatal(err)
	}

	// Arm B: MNSA/D + Shrinking Set (the §6 offline policy) on identical
	// data — non-essential statistics land on the drop-list and stop being
	// maintained.
	drop, err := autostats.GenerateTPCD(autostats.TPCDOptions{Scale: 0.5, Skew: 2})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := drop.TuneWorkloadCtx(ctx, stream, autostats.TuneOptions{Drop: true, Shrink: true})
	if err != nil {
		log.Fatal(err)
	}

	count := func(s *autostats.System) (maintained, dropListed int) {
		for _, st := range s.Statistics() {
			if st.InDropList {
				dropListed++
			} else {
				maintained++
			}
		}
		return
	}
	mA, _ := count(keep)
	mB, dB := count(drop)
	fmt.Printf("MNSA kept everything:        %d statistics maintained\n", mA)
	fmt.Printf("MNSA/D + Shrinking Set:      %d maintained, %d on the drop-list\n", mB, dB)
	fmt.Printf("kept by Shrinking Set:       %d statistics\n", len(rep.Essential))

	// Run the update-heavy stream on both arms; maintenance refreshes only
	// maintained statistics, so arm B pays less.
	execute := func(s *autostats.System) (execCost float64) {
		for _, sql := range stream {
			res, err := s.ExecCtx(ctx, sql)
			if err != nil {
				log.Fatal(err)
			}
			execCost += res.ExecCost
		}
		if _, err := s.RunMaintenance(ctx); err != nil {
			log.Fatal(err)
		}
		return execCost
	}
	costA := execute(keep)
	costB := execute(drop)
	fmt.Printf("\nworkload execution cost:  keep-all %.0f  vs  drop-list %.0f (%.1f%% difference)\n",
		costA, costB, 100*(costB-costA)/costA)

	fmt.Println("\ndrop-listed (identified non-essential, no longer refreshed):")
	for _, st := range drop.Statistics() {
		if st.InDropList {
			fmt.Println("  ", st.ID)
		}
	}
}
