package bench

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"autostats/internal/core"
)

// Experiment shape tests: assert the direction and rough magnitude of every
// §8 result on a reduced scale, leaving exact percentages to EXPERIMENTS.md.

func TestIntroShape(t *testing.T) {
	res, err := Intro("TPCD_2", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Rows); n != 17 {
		t.Fatalf("expected 17 TPCD-ORIG queries, got %d", n)
	}
	t.Logf("plans changed: %d/17, improved: %d, worse: %d", res.Changed, res.Improved, res.Worse)
	// The paper saw 15/17 on SQL Server's much richer plan space; our
	// single-block engine's ceiling is lower (queries whose only plan is a
	// scan+aggregate cannot change), but the direction must hold: a large
	// share of plans change once statistics exist, and changes improve.
	if res.Changed < 8 {
		t.Errorf("expected many plans to change once statistics exist (paper: 15/17); got %d", res.Changed)
	}
	if res.Improved*2 < res.Changed {
		t.Errorf("expected most changed plans to improve execution cost; improved %d of %d", res.Improved, res.Changed)
	}
	if res.Worse > res.Changed/3 {
		t.Errorf("too many changed plans regressed: %d of %d", res.Worse, res.Changed)
	}
}

func TestFigure3Shape(t *testing.T) {
	row, err := Figure3("TPCD_2", "U0-C-40", 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", row)
	if row.CandidateCount >= row.ExhaustiveCount {
		t.Errorf("candidate algorithm should propose fewer statistics: %d vs %d", row.CandidateCount, row.ExhaustiveCount)
	}
	if row.CreationReductionPct < 20 {
		t.Errorf("expected substantial creation-cost reduction (paper: 50-80%%), got %.1f%%", row.CreationReductionPct)
	}
	if row.ExecIncreasePct > 10 {
		t.Errorf("execution cost increase too high: %.1f%% (paper: <=3%%)", row.ExecIncreasePct)
	}
}

func TestFigure4Shape(t *testing.T) {
	row, err := Figure4("TPCD_2", "U0-C-40", 0.5, 1, core.CandidateStats)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", row)
	if row.MNSACount >= row.AllCount {
		t.Errorf("MNSA should build fewer statistics: %d vs %d", row.MNSACount, row.AllCount)
	}
	if row.CreationReductionPct <= 0 {
		t.Errorf("expected positive creation-cost reduction (paper: 30-45%%), got %.1f%%", row.CreationReductionPct)
	}
	if row.ExecIncreasePct > 10 {
		t.Errorf("execution cost increase too high: %.1f%% (paper: <=2%%)", row.ExecIncreasePct)
	}
}

func TestFigure4SingleColumnShape(t *testing.T) {
	row, err := Figure4("TPCD_2", "U0-C-40", 0.5, 1, core.SingleColumnCandidates)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", row)
	if row.CreationReductionPct <= 0 {
		t.Errorf("expected positive reduction (paper: >30%% in all cases), got %.1f%%", row.CreationReductionPct)
	}
}

func TestTable1Shape(t *testing.T) {
	row, err := Table1("TPCD_2", "U25-C-40", 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", row)
	if row.DropListed == 0 {
		t.Errorf("MNSA/D should drop-list some statistics")
	}
	if row.UpdateReductionPct <= 0 {
		t.Errorf("expected positive update-cost reduction (paper: ~30%%), got %.1f%%", row.UpdateReductionPct)
	}
	if row.ExecIncreasePct > 15 {
		t.Errorf("re-run execution cost increase too high: %.1f%% (paper: <=6%%)", row.ExecIncreasePct)
	}
}

// The ablation cell both ablation tests read. sweeps runs every ablation on
// it once, and the tests share the rows.
const ablationCellDB, ablationCellWorkload, ablationCellScale, ablationCellSeed = "TPCD_2", "U0-C-30", 0.5, 1

var sweeps = sync.OnceValues(func() (map[string][]*AblationRow, error) {
	out := map[string][]*AblationRow{}
	for _, a := range Ablations {
		rows, err := a.Run(ablationCellDB, ablationCellWorkload, ablationCellScale, ablationCellSeed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		out[a.Name] = rows
	}
	return out, nil
})

func TestAblationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	all, err := sweeps()
	if err != nil {
		t.Fatal(err)
	}

	rows := all["ablation-t"]
	if len(rows) != len(thresholds) {
		t.Fatalf("threshold sweep rows: %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].StatsCreated < rows[i].StatsCreated {
			t.Errorf("threshold sweep: smaller t must never build fewer statistics: %+v", rows)
		}
	}

	rows = all["ablation-next"]
	if rows[0].CreationUnits > rows[1].CreationUnits {
		t.Errorf("heuristic (%v units) should beat random (%v units)", rows[0].CreationUnits, rows[1].CreationUnits)
	}

	rows = all["ablation-cov"]
	if full, half := rows[0], rows[len(rows)-1]; half.CreationUnits >= full.CreationUnits {
		t.Errorf("coverage 0.5 should cost less to tune than full: %+v", rows)
	}

	rows = all["ablation-hist"]
	if len(rows) != 2 {
		t.Fatalf("histogram-kind ablation rows: %d", len(rows))
	}
	t.Logf("maxdiff exec=%v equidepth exec=%v", rows[0].ExecCost, rows[1].ExecCost)
}

// TestDefaultConfigIsOneCell: four sweeps each have a row at MNSA's default
// configuration (t = 20 %, ε = 0.0005, the most-expensive-operator
// heuristic, MaxDiff histograms), and Figure 4's MNSA arm runs it too. They
// are one cell reached five ways, so they agree exactly on statistics
// created, optimizer calls, creation units and execution cost (Figure 4's as
// its increase over the same all-candidates baseline). coverage=1 is not one
// of them: it ranks the queries first. Every label prints as it reads.
func TestDefaultConfigIsOneCell(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	all, err := sweeps()
	if err != nil {
		t.Fatal(err)
	}
	defaults := map[string]string{
		"ablation-t":    "t=20%",
		"ablation-eps":  "eps=0.0005",
		"ablation-next": "most-expensive-operator",
		"ablation-hist": "maxdiff",
	}
	var same []*AblationRow
	for _, a := range Ablations {
		for _, r := range all[a.Name] {
			if strings.Contains(r.Label, "%%") {
				t.Errorf("%s: label %q carries a Printf escape", a.Name, r.Label)
			}
			if r.Label == defaults[a.Name] {
				same = append(same, r)
			}
		}
	}
	if len(same) != len(defaults) {
		t.Fatalf("found %d default-configuration rows, want %d", len(same), len(defaults))
	}
	ref := *same[0]
	for _, r := range same[1:] {
		got := *r
		got.Label = ref.Label
		if got != ref {
			t.Errorf("%s disagrees with %s: %+v vs %+v", r.Label, ref.Label, *r, ref)
		}
	}
	fig, err := Figure4(ablationCellDB, ablationCellWorkload, ablationCellScale, ablationCellSeed, core.CandidateStats)
	if err != nil {
		t.Fatal(err)
	}
	if fig.MNSACount != ref.StatsCreated || fig.OptimizerCalls != ref.OptimizerCalls ||
		fig.MNSAUnits != ref.CreationUnits || fig.ExecIncreasePct != ref.ExecIncreasePct {
		t.Errorf("Figure 4's MNSA arm disagrees with %s: %+v vs %+v", ref.Label, *fig, ref)
	}
	t.Logf("default cell: %+v", ref)
}

// TestCostWeightedTuning: the §6 coverage knob must tune fewer queries and
// create at most as many statistics as the full run, full coverage must tune
// every query, and a coverage outside (0,1] is an error.
func TestCostWeightedTuning(t *testing.T) {
	run := func(coverage float64) (*core.WorkloadResult, int, int, error) {
		env, w, err := newCell("TPCD_2", "U0-C-30", 0.5, 21).open()
		if err != nil {
			t.Fatal(err)
		}
		wr, tuned, err := runMNSACostWeighted(env.sess, w.Queries(), core.DefaultConfig(), coverage)
		return wr, tuned, len(w.Queries()), err
	}
	wrFull, tunedFull, n, err := run(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if tunedFull != n {
		t.Errorf("coverage 1.0 should tune all %d queries, tuned %d", n, tunedFull)
	}
	wrHalf, tunedHalf, _, err := run(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tunedHalf >= tunedFull {
		t.Errorf("coverage 0.5 should tune fewer queries: %d vs %d", tunedHalf, tunedFull)
	}
	if len(wrHalf.Created) > len(wrFull.Created) {
		t.Errorf("coverage 0.5 created more statistics (%d) than full (%d)", len(wrHalf.Created), len(wrFull.Created))
	}
	if _, _, _, err := run(0); err == nil {
		t.Error("coverage 0 should error")
	}
	if _, _, _, err := run(1.5); err == nil {
		t.Error("coverage > 1 should error")
	}
}
