package bench

import (
	"context"
	"fmt"
	"time"

	"autostats/internal/core"
	"autostats/internal/query"
	"autostats/internal/stats"
	"autostats/internal/workload"
)

// optimizerCallUnits charges one full optimization at the equivalent of
// scanning a few hundred rows when folding MNSA's overhead into "statistics
// creation cost" (§8.2 includes the overhead; §4.3: "the time to create a
// statistic typically far exceeds the time to optimize a query").
const optimizerCallUnits = 200.0

// createAll builds every candidate in order and returns (cost units, wall
// time) charged by the statistics manager.
func (e *env) createAll(cands []core.Candidate) (float64, time.Duration, error) {
	e.mgr.ResetAccounting()
	for _, c := range cands {
		if _, err := e.mgr.Create(c.Table, c.Columns); err != nil {
			return 0, 0, err
		}
	}
	acct := e.mgr.Snapshot()
	return acct.TotalBuildCost, acct.TotalBuildTime, nil
}

// ---------------------------------------------------------------------------
// §1 motivating experiment
// ---------------------------------------------------------------------------

// IntroRow is one TPCD-ORIG query's before/after comparison.
type IntroRow struct {
	Query       int
	PlanChanged bool
	// ExecBefore/ExecAfter are the execution costs (work units) of the plan
	// chosen without vs. with the additional column statistics.
	ExecBefore, ExecAfter float64
}

// IntroResult is the §1 experiment: on a tuned database (statistics only on
// indexed columns), how many of the 17 TPCD-ORIG query plans change — and
// improve — once relevant statistics are created. The paper observed all but
// 2 plans changed, with improved execution cost.
type IntroResult struct {
	DB      string
	Rows    []IntroRow
	Changed int
	// Improved counts changed plans whose execution cost did not get more
	// than noise-level (5 %) worse.
	Improved int
	// Worse counts changed plans that regressed beyond the 5 % noise band.
	Worse int
}

// Intro runs the §1 experiment on the named database.
func Intro(dbName string, scale float64) (*IntroResult, error) {
	env, err := newEnv(dbName, scale)
	if err != nil {
		return nil, err
	}
	if err := env.createIndexedColumnStats(); err != nil {
		return nil, err
	}
	w, err := workload.TPCDOrig(env.db.Schema)
	if err != nil {
		return nil, err
	}
	queries := w.Queries()

	before := make([]*planExec, len(queries))
	for i, q := range queries {
		pe, err := env.planAndRun(q)
		if err != nil {
			return nil, fmt.Errorf("bench: intro Q%d before: %w", i+1, err)
		}
		before[i] = pe
	}
	// "We then created a set of relevant statistics for the workload":
	// all §7.1 candidates for the 17 queries.
	if _, _, err := env.createAll(core.WorkloadCandidates(queries, core.CandidateStats)); err != nil {
		return nil, err
	}
	res := &IntroResult{DB: dbName}
	for i, q := range queries {
		after, err := env.planAndRun(q)
		if err != nil {
			return nil, fmt.Errorf("bench: intro Q%d after: %w", i+1, err)
		}
		row := IntroRow{
			Query:       i + 1,
			PlanChanged: after.sig != before[i].sig,
			ExecBefore:  before[i].execCost,
			ExecAfter:   after.execCost,
		}
		if row.PlanChanged {
			res.Changed++
			if row.ExecAfter <= row.ExecBefore*1.05 {
				res.Improved++
			} else {
				res.Worse++
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

type planExec struct {
	sig      string
	estCost  float64
	execCost float64
}

func (e *env) planAndRun(q *query.Select) (*planExec, error) {
	plan, err := e.sess.Optimize(q)
	if err != nil {
		return nil, err
	}
	res, err := e.ex.Run(plan)
	if err != nil {
		return nil, err
	}
	return &planExec{sig: plan.Signature(), estCost: plan.Cost(), execCost: res.Cost}, nil
}

// ---------------------------------------------------------------------------
// Figure 3 — Candidate Statistics algorithm vs Exhaustive
// ---------------------------------------------------------------------------

// Fig3Row compares the §7.1 candidate algorithm against the exhaustive
// baseline on one (database, workload) cell.
type Fig3Row struct {
	DB, Workload string
	// Statistic counts proposed by each algorithm (workload union).
	ExhaustiveCount, CandidateCount int
	// Creation cost in work units and wall time.
	ExhaustiveUnits, CandidateUnits float64
	ExhaustiveTime, CandidateTime   time.Duration
	// CreationReductionPct is the paper's Figure 3 metric (50–80 % in the
	// paper), computed over work units; WallReductionPct is the wall-clock
	// counterpart.
	CreationReductionPct float64
	WallReductionPct     float64
	// ExecIncreasePct is the workload execution cost increase due to the
	// pruned statistics (≤ 3 % in the paper).
	ExecIncreasePct float64
}

// Figure3 runs one cell of Figure 3.
func Figure3(dbName, wlName string, scale float64, seed int64) (*Fig3Row, error) {
	envEx, err := newEnv(dbName, scale)
	if err != nil {
		return nil, err
	}
	w, err := envEx.buildWorkload(wlName, seed)
	if err != nil {
		return nil, err
	}
	queries := w.Queries()

	exCands := core.WorkloadCandidates(queries, core.ExhaustiveStats)
	exUnits, exTime, err := envEx.createAll(exCands)
	if err != nil {
		return nil, err
	}
	exExec, err := envEx.executeQueries(w)
	if err != nil {
		return nil, err
	}

	envCand, err := newEnv(dbName, scale)
	if err != nil {
		return nil, err
	}
	cands := core.WorkloadCandidates(queries, core.CandidateStats)
	candUnits, candTime, err := envCand.createAll(cands)
	if err != nil {
		return nil, err
	}
	candExec, err := envCand.executeQueries(w)
	if err != nil {
		return nil, err
	}

	return &Fig3Row{
		DB:                   dbName,
		Workload:             wlName,
		ExhaustiveCount:      len(exCands),
		CandidateCount:       len(cands),
		ExhaustiveUnits:      exUnits,
		CandidateUnits:       candUnits,
		ExhaustiveTime:       exTime,
		CandidateTime:        candTime,
		CreationReductionPct: pctReduction(exUnits, candUnits),
		WallReductionPct:     pctReduction(float64(exTime), float64(candTime)),
		ExecIncreasePct:      PctIncrease(exExec, candExec),
	}, nil
}

// ---------------------------------------------------------------------------
// Figure 4 — MNSA vs creating all candidate statistics
// ---------------------------------------------------------------------------

// Fig4Row compares MNSA against creating every candidate statistic on one
// (database, workload) cell.
type Fig4Row struct {
	DB, Workload string
	// AllCount/MNSACount are the numbers of statistics created.
	AllCount, MNSACount int
	// Creation cost in units; MNSAUnits includes the optimizer-call
	// overhead (§8.2 includes MNSA overhead in creation time).
	AllUnits, MNSAUnits float64
	AllTime, MNSATime   time.Duration
	OptimizerCalls      int
	// CreationReductionPct is the Figure 4 metric (30–45 % in the paper).
	CreationReductionPct float64
	WallReductionPct     float64
	// ExecIncreasePct is the workload execution-cost increase (≤ 2 % in the
	// paper).
	ExecIncreasePct float64
}

// Figure4 runs one cell of Figure 4. candidateFn selects the candidate space
// (core.CandidateStats for the headline figure, core.SingleColumnCandidates
// for the §8.2 single-column variant).
func Figure4(dbName, wlName string, scale float64, seed int64, candidateFn func(*query.Select) []core.Candidate) (*Fig4Row, error) {
	if candidateFn == nil {
		candidateFn = core.CandidateStats
	}
	// Arm A: all candidate statistics.
	envAll, err := newEnv(dbName, scale)
	if err != nil {
		return nil, err
	}
	w, err := envAll.buildWorkload(wlName, seed)
	if err != nil {
		return nil, err
	}
	queries := w.Queries()
	allCands := core.WorkloadCandidates(queries, candidateFn)
	allUnits, allTime, err := envAll.createAll(allCands)
	if err != nil {
		return nil, err
	}
	allExec, err := envAll.executeQueries(w)
	if err != nil {
		return nil, err
	}

	// Arm B: MNSA over the same candidate space.
	envM, err := newEnv(dbName, scale)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.CandidateFn = candidateFn
	envM.mgr.ResetAccounting()
	start := time.Now()
	wr, err := core.RunMNSAWorkloadCtx(context.Background(), envM.sess, queries, cfg)
	if err != nil {
		return nil, err
	}
	mnsaTime := time.Since(start)
	mnsaUnits := envM.mgr.Snapshot().TotalBuildCost + float64(wr.OptimizerCalls)*optimizerCallUnits
	mnsaExec, err := envM.executeQueries(w)
	if err != nil {
		return nil, err
	}

	return &Fig4Row{
		DB:                   dbName,
		Workload:             wlName,
		AllCount:             len(allCands),
		MNSACount:            len(wr.Created),
		AllUnits:             allUnits,
		MNSAUnits:            mnsaUnits,
		AllTime:              allTime,
		MNSATime:             mnsaTime,
		OptimizerCalls:       wr.OptimizerCalls,
		CreationReductionPct: pctReduction(allUnits, mnsaUnits),
		WallReductionPct:     pctReduction(float64(allTime), float64(mnsaTime)),
		ExecIncreasePct:      PctIncrease(allExec, mnsaExec),
	}, nil
}

// ---------------------------------------------------------------------------
// Table 1 — MNSA/D vs MNSA statistics update cost (U25-C-100)
// ---------------------------------------------------------------------------

// Table1Row compares the maintenance burden of the statistics sets left
// behind by MNSA and MNSA/D on one database.
type Table1Row struct {
	DB string
	// Created/DropListed statistic counts under MNSA/D.
	MNSACount, MNSADCount, DropListed int
	// UpdateUnits is the cost of one refresh cycle over the maintained set
	// (Table 1's metric; the paper reports 30–34 % reduction).
	MNSAUpdateUnits, MNSADUpdateUnits float64
	UpdateReductionPct                float64
	// ReplayUpdateUnits accumulates actual refresh cost while replaying the
	// workload's DML under the SQL Server-style maintenance policy.
	ReplayMNSAUnits, ReplayMNSADUnits float64
	ReplayReductionPct                float64
	// ExecIncreasePct is the §8.2 re-run check: execution-cost increase
	// after physically dropping the drop-listed statistics (≤ 6 % in the
	// paper, worst on TPCD_4).
	ExecIncreasePct float64
}

// Table1 runs one row of Table 1 on the named database with the U25-C-100
// workload (paper configuration), or any workload name passed in.
func Table1(dbName, wlName string, scale float64, seed int64) (*Table1Row, error) {
	// Arm A: plain MNSA.
	envA, err := newEnv(dbName, scale)
	if err != nil {
		return nil, err
	}
	w, err := envA.buildWorkload(wlName, seed)
	if err != nil {
		return nil, err
	}
	queries := w.Queries()
	cfg := core.DefaultConfig()
	wrA, err := core.RunMNSAWorkloadCtx(context.Background(), envA.sess, queries, cfg)
	if err != nil {
		return nil, err
	}
	updateA := envA.mgr.MaintenanceCostUnits()

	// Arm B: MNSA/D.
	envB, err := newEnv(dbName, scale)
	if err != nil {
		return nil, err
	}
	cfgD := cfg
	cfgD.Drop = true
	wrB, err := core.RunMNSAWorkloadCtx(context.Background(), envB.sess, queries, cfgD)
	if err != nil {
		return nil, err
	}
	updateB := envB.mgr.MaintenanceCostUnits()

	// Replay the full workload (queries + DML) under the maintenance policy
	// and accumulate actual refresh cost.
	replayA, err := replayWithMaintenance(envA, w)
	if err != nil {
		return nil, err
	}
	replayB, err := replayWithMaintenance(envB, w)
	if err != nil {
		return nil, err
	}

	// §8.2 re-run check: physically drop the drop-listed statistics, then
	// re-run the workload queries and compare against arm A. Fresh
	// environments keep the data identical after the replay's DML.
	envA2, err := newEnv(dbName, scale)
	if err != nil {
		return nil, err
	}
	for _, id := range wrA.Created {
		st := envA.mgr.Get(id)
		if st == nil {
			continue
		}
		if _, err := envA2.mgr.Create(st.Table, st.Columns); err != nil {
			return nil, err
		}
	}
	execA, err := envA2.executeQueries(w)
	if err != nil {
		return nil, err
	}
	envB2, err := newEnv(dbName, scale)
	if err != nil {
		return nil, err
	}
	dropped := map[stats.ID]bool{}
	for _, id := range wrB.DropListed {
		dropped[id] = true
	}
	for _, id := range wrB.Created {
		if dropped[id] {
			continue
		}
		st := envB.mgr.Get(id)
		if st == nil {
			continue
		}
		if _, err := envB2.mgr.Create(st.Table, st.Columns); err != nil {
			return nil, err
		}
	}
	execB, err := envB2.executeQueries(w)
	if err != nil {
		return nil, err
	}

	return &Table1Row{
		DB:                 dbName,
		MNSACount:          len(wrA.Created),
		MNSADCount:         len(wrB.Created),
		DropListed:         len(wrB.DropListed),
		MNSAUpdateUnits:    updateA,
		MNSADUpdateUnits:   updateB,
		UpdateReductionPct: pctReduction(updateA, updateB),
		ReplayMNSAUnits:    replayA,
		ReplayMNSADUnits:   replayB,
		ReplayReductionPct: pctReduction(replayA, replayB),
		ExecIncreasePct:    PctIncrease(execA, execB),
	}, nil
}

// replayWithMaintenance executes the whole workload, running the SQL
// Server-style maintenance policy every 25 statements, and returns the
// statistics update cost charged.
func replayWithMaintenance(e *env, w *workload.Workload) (float64, error) {
	e.mgr.ResetAccounting()
	policy := stats.DefaultMaintenancePolicy()
	policy.MaxUpdates = 0 // measure pure update cost; no drops during replay
	for i, stmt := range w.Statements {
		if _, err := e.ex.RunStatement(e.sess, stmt); err != nil {
			return 0, err
		}
		if (i+1)%25 == 0 {
			if _, err := e.mgr.RunMaintenance(context.Background(), policy); err != nil {
				return 0, err
			}
		}
	}
	return e.mgr.Snapshot().TotalUpdateCost, nil
}
