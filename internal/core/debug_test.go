package core

import (
	"testing"

	"autostats/internal/optimizer"
	"autostats/internal/stats"
)

func TestDebugMNSATrace(t *testing.T) {
	db := testDB(t, 0)
	sess := newSession(t, db)
	q := mustParse(t, db, `SELECT * FROM lineitem, orders
		WHERE l_orderkey = o_orderkey AND l_shipdate < DATE 8500
		AND o_totalprice > 400000 AND l_quantity > 45`)
	cands := CandidateStats(q)
	mgr := sess.Manager()
	cfg := DefaultConfig()
	consumed := map[stats.ID]bool{}
	for i := 0; i < 10; i++ {
		p, err := sess.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		missing := p.MissingVars
		t.Logf("iter %d: missing=%v cost=%.1f", i, missing, p.Cost())
		if len(missing) == 0 {
			break
		}
		low := map[int]float64{}
		high := map[int]float64{}
		for _, v := range missing {
			low[v] = cfg.Epsilon
			high[v] = 1 - cfg.Epsilon
		}
		pl, _ := sess.OptimizeWhatIf(q, optimizer.WhatIf{Overrides: low})
		ph, _ := sess.OptimizeWhatIf(q, optimizer.WhatIf{Overrides: high})
		t.Logf("  plow=%.1f phigh=%.1f", pl.Cost(), ph.Cost())
		if (TOptimizerCost{T: cfg.T}).Equivalent(pl, ph) {
			t.Logf("  equivalent -> stop")
			break
		}
		unit := findNextStatToBuild(p, cands, mgr, consumed, missing)
		if len(unit) == 0 {
			t.Logf("  no candidates -> stop")
			break
		}
		for _, c := range unit {
			consumed[c.ID()] = true
			if _, err := mgr.Create(c.Table, c.Columns); err != nil {
				t.Fatal(err)
			}
			t.Logf("  built %s", c.ID())
		}
	}
}
