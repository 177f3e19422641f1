package autostats

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestSystemConcurrentHammer is the race-regression sweep for the
// stats-as-a-service usage pattern: one System shared by many goroutines
// running Exec (queries and DML), Explain, TuneQuery, RunMaintenance and
// the read-only inspectors at the same time. The server (internal/server)
// makes this the DEFAULT way a System is used — before it, only
// stats.Manager internals were swept under -race. The test asserts nothing
// about results beyond "no error"; its value is the -race run.
func TestSystemConcurrentHammer(t *testing.T) {
	sys, err := GenerateTPCD(TPCDOptions{Scale: 0.05, Skew: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Configure BEFORE serving, per the System concurrency contract.
	if err := sys.CreateIndexedColumnStats(); err != nil {
		t.Fatal(err)
	}

	stmts, err := sys.GenerateWorkload(WorkloadOptions{Count: 60, UpdatePct: 30, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var selects []string
	for _, s := range stmts {
		if exp, eerr := sys.Explain(context.Background(), s); eerr == nil && exp != "" {
			selects = append(selects, s)
		}
	}
	if len(selects) < 5 {
		t.Fatalf("workload produced only %d SELECTs", len(selects))
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	report := func(kind string, err error) {
		if err != nil {
			select {
			case errs <- fmt.Errorf("%s: %w", kind, err):
			default:
			}
		}
	}

	// Statement executors: queries and DML interleaved, offset per worker so
	// the schedules differ.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for i := 0; i < len(stmts); i++ {
				_, err := sys.Exec(stmts[(i+off)%len(stmts)])
				report("exec", err)
			}
		}(w * 7)
	}
	// Explainers over the SELECT subset.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for i := 0; i < 2*len(selects); i++ {
				_, err := sys.Explain(context.Background(), selects[(i+off)%len(selects)])
				report("explain", err)
			}
		}(w * 3)
	}
	// Tuner: MNSA/D creates and drop-lists statistics while statements run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			_, err := sys.TuneQuery(context.Background(), selects[i%len(selects)], TuneOptions{Drop: true})
			report("tune", err)
		}
	}()
	// Maintenance loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			_, err := sys.RunMaintenance(context.Background())
			report("maintenance", err)
		}
	}()
	// Read-only inspectors.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = sys.Statistics()
			_ = sys.PlanCacheStats()
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStatisticsWhileDropListing: Statistics() — the inspector behind the
// server's stats op — reads InDropList from statistics the manager has
// handed out, so a drop-list change must publish a copy rather than write
// the shared value. Run under -race; the drop-listed count keeps the run
// from passing with nothing flipped.
func TestStatisticsWhileDropListing(t *testing.T) {
	sys, err := GenerateTPCD(TPCDOptions{Scale: 0.2, Skew: 2})
	if err != nil {
		t.Fatal(err)
	}
	stmts, err := sys.GenerateWorkload(WorkloadOptions{Count: 60, Complex: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = sys.Statistics()
			}
		}
	}()
	rep, err := sys.TuneWorkloadCtx(context.Background(), stmts, TuneOptions{Drop: true})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DropListed) == 0 {
		t.Fatalf("tuning drop-listed nothing (%d created): the race has nothing to catch", len(rep.Created))
	}
}

// TestSystemConcurrentExecDeterministicResults pins down that concurrent
// Exec of the same SELECT (plan-cache hits from pooled session clones)
// returns the same row multiset as a serial run.
func TestSystemConcurrentExecDeterministicResults(t *testing.T) {
	sys, err := GenerateTPCD(TPCDOptions{Scale: 0.05, Skew: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateIndexedColumnStats(); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT * FROM orders WHERE o_orderkey > 10"
	ref, err := sys.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]*QueryResult, 16)
	errList := make([]error, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errList[i] = sys.Exec(q)
		}(i)
	}
	wg.Wait()
	for i, err := range errList {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		if len(got[i].Rows) != len(ref.Rows) {
			t.Fatalf("worker %d: %d rows, want %d", i, len(got[i].Rows), len(ref.Rows))
		}
	}
	if hits := sys.PlanCacheStats().Hits; hits == 0 {
		t.Fatalf("concurrent repeats of one template produced no plan-cache hits")
	}
}
