package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"autostats/internal/resilience"
	"autostats/internal/stats"
)

// blockUntilCanceled is a failpoint that parks every build until its context
// is canceled — the "hung build path" scenario.
func blockUntilCanceled(ctx context.Context, _ string, _ stats.ID) error {
	<-ctx.Done()
	return ctx.Err()
}

// TestWorkloadCancellationPromptAndClean: canceling a mid-flight workload run
// must return promptly with the context's error, leave the manager's
// accounting and epoch untouched by the aborted build, and leave no goroutine
// behind.
func TestWorkloadCancellationPromptAndClean(t *testing.T) {
	db := testDB(t, 2)
	sess := newSession(t, db)
	mgr := sess.Manager()
	mgr.SetFailpoint(blockUntilCanceled)

	epochBefore := mgr.Epoch()
	acctBefore := mgr.Snapshot()
	goroutinesBefore := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	wr, err := RunMNSAWorkloadCtx(ctx, sess, tuningWorkload(t, db), DefaultConfig())
	elapsed := time.Since(start)

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if wr != nil {
		t.Errorf("canceled run returned a result: %+v", wr)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v — not prompt", elapsed)
	}
	if got := mgr.Epoch(); got != epochBefore {
		t.Errorf("epoch moved %d -> %d despite no build completing", epochBefore, got)
	}
	acctAfter := mgr.Snapshot()
	if acctAfter.BuildCount != acctBefore.BuildCount || acctAfter.TotalBuildCost != acctBefore.TotalBuildCost {
		t.Errorf("accounting changed across canceled run: before=%+v after=%+v", acctBefore, acctAfter)
	}
	// Only the canceling goroutine above may still be winding down; give the
	// runtime a moment to reap it and verify the run itself left nothing.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutinesBefore+1 {
		t.Errorf("goroutines: %d before, %d after — leak", goroutinesBefore, got)
	}
}

// TestWorkloadPreCanceled: a context canceled before the call must fail fast
// without doing any work.
func TestWorkloadPreCanceled(t *testing.T) {
	db := testDB(t, 2)
	sess := newSession(t, db)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunMNSAWorkloadCtx(ctx, sess, tuningWorkload(t, db), DefaultConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := len(sess.Manager().All()); n != 0 {
		t.Errorf("%d statistics built under a pre-canceled context", n)
	}
}

// TestMNSADegradedTolerant: with a resilience Builder installed and every
// build failing, MNSA must finish (not error), report every wanted build as a
// failure, and mark the session degraded; without a Builder the same failure
// aborts the analysis.
func TestMNSADegradedTolerant(t *testing.T) {
	db := testDB(t, 2)
	sess := newSession(t, db)
	mgr := sess.Manager()
	boom := errors.New("boom")
	mgr.SetFailpoint(func(context.Context, string, stats.ID) error { return stats.Transient(boom) })

	q := mustParse(t, db, "SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 45")

	// Strict mode: the failure aborts.
	if _, err := RunMNSA(sess, q, DefaultConfig()); !errors.Is(err, boom) {
		t.Fatalf("strict mode: err = %v, want the build failure", err)
	}

	// Tolerant mode: degraded completion on magic numbers.
	guard := resilience.NewGuard(mgr, resilience.GuardConfig{
		Retry: resilience.Retry{MaxAttempts: 1},
	})
	cfg := DefaultConfig()
	cfg.Builder = guard
	sess.ClearDegraded()
	res, err := RunMNSACtx(context.Background(), sess, q, cfg)
	if err != nil {
		t.Fatalf("tolerant mode: %v", err)
	}
	if !res.Degraded() || len(res.BuildFailures) == 0 {
		t.Fatalf("run should be degraded with recorded failures: %+v", res)
	}
	for _, bf := range res.BuildFailures {
		if !errors.Is(bf.Err, boom) {
			t.Errorf("BuildFailure %s lost its cause: %v", bf.ID, bf.Err)
		}
	}
	if len(res.Created) != 0 {
		t.Errorf("nothing could be built, yet Created = %v", res.Created)
	}
	if reasons := sess.DegradedReasons(); len(reasons) == 0 {
		t.Error("session not marked degraded")
	}
	// Cancellation still aborts even in tolerant mode.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunMNSACtx(ctx, sess, q, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("tolerant mode must still propagate cancellation, got %v", err)
	}
}
