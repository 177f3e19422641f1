package autostats

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// TestEntryPointsHonorCanceledContext: every facade entry point that takes a
// context returns context.Canceled for a pre-canceled one and changes
// nothing — no statistic built or refreshed, no row written, no tick of the
// manager's logical clock, no statement counted by the on-the-fly policy.
// The region table holds a statistic and enough modifications that a live
// maintenance pass would refresh it, so the maintenance case can fail.
func TestEntryPointsHonorCanceledContext(t *testing.T) {
	sys := testSystem(t)
	if err := sys.CreateStatistic("region", "r_name"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := sys.ExecCtx(context.Background(), fmt.Sprintf("INSERT INTO region VALUES (%d, 'R%d', 'c')", 10+i, i)); err != nil {
			t.Fatal(err)
		}
	}
	const (
		sel = "SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 45"
		ins = "INSERT INTO region VALUES (99, 'X', 'y')"
	)
	cases := []struct {
		name string
		call func(ctx context.Context) error
	}{
		{"ExecCtx", func(ctx context.Context) error { _, err := sys.ExecCtx(ctx, ins); return err }},
		{"Explain", func(ctx context.Context) error { _, err := sys.Explain(ctx, sel); return err }},
		{"TuneQuery", func(ctx context.Context) error { _, err := sys.TuneQuery(ctx, sel, TuneOptions{}); return err }},
		{"TuneWorkloadCtx", func(ctx context.Context) error {
			_, err := sys.TuneWorkloadCtx(ctx, []string{sel}, TuneOptions{})
			return err
		}},
		{"TuneWorkloadCtx/Shrink", func(ctx context.Context) error {
			_, err := sys.TuneWorkloadCtx(ctx, []string{sel}, TuneOptions{Shrink: true})
			return err
		}},
		{"ProcessStatementCtx/select", func(ctx context.Context) error { _, err := sys.ProcessStatementCtx(ctx, sel); return err }},
		{"ProcessStatementCtx/dml", func(ctx context.Context) error { _, err := sys.ProcessStatementCtx(ctx, ins); return err }},
		{"RunMaintenance", func(ctx context.Context) error { _, err := sys.RunMaintenance(ctx); return err }},
	}
	rowCounts := func() map[string]int {
		out := map[string]int{}
		for _, name := range sys.Schema().TableNames() {
			td, err := sys.db.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = td.RowCount()
		}
		return out
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stats, rows, run := sys.Statistics(), rowCounts(), sys.auto.StatementsRun
			// Tick is the only reader of the clock: two probes one apart
			// mean the call between them did not advance it.
			tick := sys.mgr.Tick()
			err := c.call(canceled)
			if got := sys.mgr.Tick(); got != tick+1 {
				t.Errorf("logical clock moved by %d", got-tick-1)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled", err)
			}
			if got := sys.Statistics(); !reflect.DeepEqual(got, stats) {
				t.Errorf("statistics changed:\n got %+v\nwant %+v", got, stats)
			}
			if got := rowCounts(); !reflect.DeepEqual(got, rows) {
				t.Errorf("row counts changed: got %v, want %v", got, rows)
			}
			if got := sys.auto.StatementsRun; got != run {
				t.Errorf("StatementsRun = %d, want %d", got, run)
			}
		})
	}
}
