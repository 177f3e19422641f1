package server

import (
	"errors"
	"sync"
	"testing"
	"time"

	"autostats"
	"autostats/internal/obs"
)

func testSystem(t *testing.T) *autostats.System {
	t.Helper()
	sys, err := autostats.GenerateTPCD(autostats.TPCDOptions{Scale: 0.02, Skew: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestTenantTableLazySingleCreation(t *testing.T) {
	var mu sync.Mutex
	calls := map[string]int{}
	sys := testSystem(t)
	tt := newTenantTable(func(name string) (*autostats.System, error) {
		mu.Lock()
		calls[name]++
		mu.Unlock()
		return sys, nil
	}, 4, obs.New())

	// Concurrent first touches of one tenant run the factory exactly once.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, release, err := tt.acquire("a")
			if err != nil {
				t.Error(err)
				return
			}
			if got != sys {
				t.Error("acquire returned a different system")
			}
			release()
		}()
	}
	wg.Wait()
	if calls["a"] != 1 {
		t.Fatalf("factory ran %d times for one tenant", calls["a"])
	}
	if tt.live.Value() != 1 {
		t.Fatalf("count = %d", tt.live.Value())
	}
}

func TestTenantTableLimitAndFailureRetry(t *testing.T) {
	fail := true
	tt := newTenantTable(func(name string) (*autostats.System, error) {
		if fail {
			return nil, errors.New("boom")
		}
		return testSystem(t), nil
	}, 1, obs.New())

	// A failed creation is not cached: the retry re-runs the factory.
	if _, _, err := tt.acquire("a"); err == nil {
		t.Fatal("want factory error")
	}
	fail = false
	sys, release, err := tt.acquire("a")
	if err != nil || sys == nil {
		t.Fatalf("retry after failure: %v", err)
	}
	defer release()

	// The table is at its limit of 1; a second tenant is refused.
	if _, _, err := tt.acquire("b"); !errors.Is(err, errTenantLimit) {
		t.Fatalf("err = %v, want errTenantLimit", err)
	}
}

func TestTenantTableIdleEviction(t *testing.T) {
	tt := newTenantTable(func(name string) (*autostats.System, error) {
		return testSystem(t), nil
	}, 4, obs.New())

	_, releaseA, err := tt.acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	_, releaseB, err := tt.acquire("b")
	if err != nil {
		t.Fatal(err)
	}
	releaseB()

	// Pin "a" (in use) and let "b" go idle past the TTL.
	time.Sleep(20 * time.Millisecond)
	tt.evictIdle(10 * time.Millisecond)
	if tt.live.Value() != 1 {
		t.Fatalf("count after eviction = %d, want 1 (only pinned tenant)", tt.live.Value())
	}
	names := map[string]bool{}
	tt.forEach(func(name string, _ *autostats.System) { names[name] = true })
	if !names["a"] || names["b"] {
		t.Fatalf("surviving tenants %v, want only a", names)
	}
	releaseA()

	// Once released and idle, "a" is evictable too — and re-creatable after.
	time.Sleep(20 * time.Millisecond)
	tt.evictIdle(10 * time.Millisecond)
	if tt.live.Value() != 0 {
		t.Fatalf("count = %d, want 0", tt.live.Value())
	}
	if _, release, err := tt.acquire("a"); err != nil {
		t.Fatalf("re-create after eviction: %v", err)
	} else {
		release()
	}
}
