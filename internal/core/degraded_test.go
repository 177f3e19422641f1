package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

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

// TestMNSADegradedTolerant: with every build failing, MNSA under the default
// configuration must finish (not error), report every wanted build as a
// failure with its cause, and mark the session degraded; cancellation still
// aborts it.
func TestMNSADegradedTolerant(t *testing.T) {
	db := testDB(t, 2)
	sess := newSession(t, db)
	mgr := sess.Manager()
	boom := errors.New("boom")
	mgr.SetFailpoint(func(context.Context, string, stats.ID) error { return boom })

	q := mustParse(t, db, "SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 45")
	cfg := DefaultConfig()
	res, err := RunMNSA(context.Background(), sess, q, cfg)
	if err != nil {
		t.Fatalf("failed builds must degrade the run, not fail it: %v", err)
	}
	if !res.Degraded() || len(res.BuildFailures) == 0 {
		t.Fatalf("run should be degraded with recorded failures: %+v", res)
	}
	for _, bf := range res.BuildFailures {
		if !errors.Is(bf.Err, boom) {
			t.Errorf("BuildFailure %s: cause %v, want boom", bf.ID, bf.Err)
		}
	}
	if len(res.Created) != 0 {
		t.Errorf("nothing could be built, yet Created = %v", res.Created)
	}
	if reasons := sess.DegradedReasons(); len(reasons) == 0 {
		t.Error("session not marked degraded")
	}
	// Cancellation still aborts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunMNSA(ctx, sess, q, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("a canceled run must return its context error, got %v", err)
	}
}

// TestBuildFailureReporting: each failed build is reported under the ID of
// the statistic the manager was asked for, in the order the builds were
// attempted, with an Err that still reaches the injected cause through the
// manager's wrapping, and the session's one degraded tag is "stats-build".
func TestBuildFailureReporting(t *testing.T) {
	db := testDB(t, 2)
	sess := newSession(t, db)
	boom := errors.New("boom")
	var vetoed []stats.ID
	sess.Manager().SetFailpoint(func(_ context.Context, op string, id stats.ID) error {
		if op != "create" {
			return nil
		}
		vetoed = append(vetoed, id)
		return fmt.Errorf("store unavailable: %w", boom)
	})
	q := mustParse(t, db, "SELECT * FROM orders, customer WHERE o_custkey = c_custkey AND o_totalprice > 400000")
	res, err := RunMNSA(context.Background(), sess, q, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(vetoed) == 0 {
		t.Fatal("no build was attempted")
	}
	if len(res.BuildFailures) != len(vetoed) {
		t.Fatalf("%d build failures reported for %d vetoed builds", len(res.BuildFailures), len(vetoed))
	}
	for i, bf := range res.BuildFailures {
		if bf.ID != vetoed[i] {
			t.Errorf("failure %d: ID %s, want %s", i, bf.ID, vetoed[i])
		}
		if !errors.Is(bf.Err, boom) {
			t.Errorf("failure %s: cause %v does not reach the injected error", bf.ID, bf.Err)
		}
	}
	if reasons := sess.DegradedReasons(); !slices.Equal(reasons, []string{"stats-build"}) {
		t.Errorf("degraded reasons = %v, want [stats-build]", reasons)
	}
}
