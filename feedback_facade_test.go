package autostats

import (
	"context"
	"testing"
)

// TestFeedbackFacade drives the whole loop through the public API: enable
// feedback, shift skew under the counter threshold, observe the q-error,
// and watch RunMaintenanceCtx fire the feedback refresh.
func TestFeedbackFacade(t *testing.T) {
	sys, err := GenerateTPCD(TPCDOptions{Skew: 2, Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateStatistic("lineitem", "l_quantity"); err != nil {
		t.Fatal(err)
	}
	sys.EnableFeedback(FeedbackOptions{})
	if !sys.FeedbackEnabled() {
		t.Fatal("FeedbackEnabled = false after EnableFeedback")
	}

	upd, err := sys.Exec("UPDATE lineitem SET l_quantity = 50 WHERE l_quantity > 1.5 AND l_quantity < 2.5")
	if err != nil {
		t.Fatal(err)
	}
	if upd.Affected == 0 {
		t.Fatal("skew-shift UPDATE affected no rows")
	}
	for i := 0; i < 2; i++ {
		if _, err := sys.Exec("SELECT l_orderkey FROM lineitem WHERE l_quantity > 45"); err != nil {
			t.Fatal(err)
		}
	}
	if fs := sys.FeedbackStats(); fs.Observations == 0 {
		t.Fatalf("no observations captured: %+v", fs)
	}
	entries := sys.FeedbackEntries()
	if len(entries) == 0 {
		t.Fatal("no ledger entries")
	}
	if e := entries[0]; e.Key.Table != "lineitem" || e.MaxQ <= 2 {
		t.Fatalf("worst entry = %+v, want lineitem with q-error above threshold", e)
	}

	rep, err := sys.RunMaintenanceCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TablesRefreshed != 0 {
		t.Errorf("row-mod counter fired: %+v", rep)
	}
	if rep.StatsFeedbackRefreshed < 1 {
		t.Errorf("no feedback refresh: %+v", rep)
	}

	sys.DisableFeedback()
	if sys.FeedbackEnabled() || sys.FeedbackEntries() != nil {
		t.Error("DisableFeedback left state attached")
	}
	if _, err := sys.Exec("SELECT l_orderkey FROM lineitem WHERE l_quantity > 45"); err != nil {
		t.Fatal(err)
	}
	if fs := sys.FeedbackStats(); fs.Observations != 0 {
		t.Errorf("capture still running after DisableFeedback: %+v", fs)
	}
}
