package oracle

import (
	"context"
	"errors"
	"sync"

	"autostats/internal/stats"
)

// errInjected is the error every injected fault returns, so tests can
// assert the failure they observe is the one they injected.
var errInjected = errors.New("oracle: injected fault")

// flakyFailpoint installs a fail-N-then-succeed failpoint: the first n
// build/refresh operations fail with errInjected, every operation after that
// succeeds. It models a build path that recovers on its own. Returns a
// function reporting how many injections fired.
func flakyFailpoint(mgr *stats.Manager, n int) (fired func() int) {
	var mu sync.Mutex
	count := 0
	mgr.SetFailpoint(func(_ context.Context, _ string, _ stats.ID) error {
		mu.Lock()
		defer mu.Unlock()
		if count < n {
			count++
			return errInjected
		}
		return nil
	})
	return func() int {
		mu.Lock()
		defer mu.Unlock()
		return count
	}
}
