package oracle

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autostats"
	"autostats/client"
	"autostats/internal/chaos"
	"autostats/internal/protocol"
	"autostats/internal/resilience"
	"autostats/internal/server"
)

// ChaosOptions parameterizes one chaos sweep. The zero value is a small,
// CI-sized sweep; Seed alone replays a run.
type ChaosOptions struct {
	// Seed drives the fault proxy and the per-session request mix.
	Seed int64
	// Sessions is the number of concurrent client sessions (default 16).
	Sessions int
	// RequestsPerSession bounds each session's request count (default 20).
	RequestsPerSession int
	// Tenants spreads sessions across this many tenant names (default 4).
	Tenants int
	// Latency/Jitter/CorruptProb/TearProb/ResetProb configure the proxy
	// (defaults: 2ms latency, 1ms jitter, 1% each fault).
	Latency     time.Duration
	Jitter      time.Duration
	CorruptProb float64
	TearProb    float64
	ResetProb   float64
	// HangBudget is how long a single call may take before the sweep calls
	// it a hang rather than a slow failure (default 30s — far above every
	// configured timeout, so only a genuinely stuck path trips it).
	HangBudget time.Duration
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.Sessions == 0 {
		o.Sessions = 16
	}
	if o.RequestsPerSession == 0 {
		o.RequestsPerSession = 20
	}
	if o.Tenants == 0 {
		o.Tenants = 4
	}
	if o.Latency == 0 {
		o.Latency = 2 * time.Millisecond
	}
	if o.Jitter == 0 {
		o.Jitter = time.Millisecond
	}
	if o.CorruptProb == 0 {
		o.CorruptProb = 0.01
	}
	if o.TearProb == 0 {
		o.TearProb = 0.01
	}
	if o.ResetProb == 0 {
		o.ResetProb = 0.01
	}
	if o.HangBudget == 0 {
		o.HangBudget = 30 * time.Second
	}
	return o
}

// ChaosReport summarizes one chaos sweep.
type ChaosReport struct {
	Sessions  int
	Requests  int64
	OK        int64
	TypedErrs int64 // failures carrying a protocol error code
	Transport int64 // prompt transport failures (resets, torn frames, ...)
	Hangs     int64 // calls that exceeded HangBudget — always findings
	Proxy     chaos.Stats
	Drain     server.DrainReport
	// GoroutinesLeaked is the count above baseline that never settled after
	// shutdown (0 when clean).
	GoroutinesLeaked int
	Findings         []Finding
}

// RunChaosSweep drives a real stats server through the fault-injecting proxy
// with a swarm of client sessions and asserts the robustness invariants:
//
//   - every client-visible failure is a typed protocol error or a prompt
//     transport error — never a hang past HangBudget;
//   - shutdown drains cleanly: Dropped = Admitted − Completed = 0;
//   - the server leaks no goroutines (and, on Linux, no file descriptors)
//     once connections are gone;
//   - plan caches stay tenant-local: no tenant's cache holds more entries
//     than the distinct statements that tenant ever issued;
//   - at least one request succeeds.
//
// Faults are injected at the byte level between client and server, so torn
// frames, corrupt length prefixes, and mid-request resets all occur
// naturally; the invariants must hold regardless.
func RunChaosSweep(opts ChaosOptions) (*ChaosReport, error) {
	opts = opts.withDefaults()
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &ChaosReport{Sessions: opts.Sessions}
	baselineGoroutines := runtime.NumGoroutine()
	baselineFDs := countFDs()

	srv, err := server.New(server.Config{
		Addr:               "127.0.0.1:0",
		Workers:            4,
		QueueDepth:         64,
		MaxTenants:         opts.Tenants + 2,
		ReadTimeout:        3 * time.Second,
		WriteTimeout:       2 * time.Second,
		RequestTimeout:     5 * time.Second,
		MaxInflightPerConn: 32,
		WriteQueue:         64,
		NewTenant: func(string) (*autostats.System, error) {
			return autostats.GenerateTPCD(autostats.TPCDOptions{Scale: 0.02, Skew: 1})
		},
		Name: "chaos-sweep",
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: server: %w", err)
	}
	if err := srv.Start(); err != nil {
		return nil, fmt.Errorf("chaos: start: %w", err)
	}

	proxy, err := chaos.New(srv.Addr().String(), chaos.Config{
		Seed:        opts.Seed,
		Latency:     opts.Latency,
		Jitter:      opts.Jitter,
		CorruptProb: opts.CorruptProb,
		TearProb:    opts.TearProb,
		ResetProb:   opts.ResetProb,
	})
	if err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Shutdown(ctx)
		cancel()
		return nil, fmt.Errorf("chaos: proxy: %w", err)
	}

	templates := []string{
		"SELECT * FROM orders WHERE o_orderkey > 10",
		"SELECT * FROM lineitem WHERE l_quantity > 45",
		"SELECT * FROM customer WHERE c_custkey > 5",
		"SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 40",
	}

	logf("chaos: %d sessions x %d requests through proxy %s (seed %d)",
		opts.Sessions, opts.RequestsPerSession, proxy.Addr(), opts.Seed)

	var (
		requests, okCalls, typed, transport, hangs atomic.Int64
		findMu                                     sync.Mutex
	)
	addFinding := func(f Finding) {
		findMu.Lock()
		rep.Findings = append(rep.Findings, f)
		findMu.Unlock()
	}

	var wg sync.WaitGroup
	for i := 0; i < opts.Sessions; i++ {
		wg.Add(1)
		go func(session int) {
			defer wg.Done()
			tenant := fmt.Sprintf("chaos%d", session%opts.Tenants)
			c, err := client.Dial(proxy.Addr().String(), client.Options{
				Tenant:         tenant,
				DialTimeout:    2 * time.Second,
				HelloTimeout:   2 * time.Second,
				RequestTimeout: 10 * time.Second,
				Retry:          resilience.Retry{MaxAttempts: 3, BaseDelay: 20 * time.Millisecond},
			})
			if err != nil {
				return // dial lost to chaos; nothing to assert about an unopened session
			}
			defer c.Close()
			for j := 0; j < opts.RequestsPerSession; j++ {
				sql := templates[(session+j)%len(templates)]
				requests.Add(1)
				start := time.Now()
				ctx, cancel := context.WithTimeout(context.Background(), opts.HangBudget)
				_, err := c.Exec(ctx, sql)
				cancel()
				elapsed := time.Since(start)
				switch classifyChaosErr(err) {
				case chaosOK:
					okCalls.Add(1)
				case chaosTyped:
					typed.Add(1)
				case chaosTransport:
					transport.Add(1)
				}
				if elapsed >= opts.HangBudget {
					hangs.Add(1)
					addFinding(Finding{
						Oracle: "chaos-hang",
						Seed:   opts.Seed,
						SQL:    sql,
						Detail: fmt.Sprintf("session %d request %d took %v (budget %v); err=%v",
							session, j, elapsed, opts.HangBudget, err),
					})
				}
			}
		}(i)
	}
	wg.Wait()

	// Tenant plan-cache isolation: each tenant only ever saw the template
	// statements, so its cache can hold at most that many entries. More
	// means statements leaked across tenants into its cache.
	for tenant, st := range srv.TenantPlanCacheStats() {
		if st.Size > len(templates) {
			addFinding(Finding{
				Oracle: "chaos-cache-isolation",
				Seed:   opts.Seed,
				Detail: fmt.Sprintf("tenant %q plan cache holds %d entries; it only issued %d distinct statements",
					tenant, st.Size, len(templates)),
			})
		}
	}

	rep.Proxy = proxy.Stats()
	proxy.Close()

	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	rep.Drain = srv.Shutdown(sctx)
	cancel()
	if rep.Drain.Dropped != 0 || rep.Drain.Admitted-rep.Drain.Completed != rep.Drain.Dropped {
		addFinding(Finding{
			Oracle: "chaos-drain",
			Seed:   opts.Seed,
			Detail: fmt.Sprintf("drain arithmetic broken under chaos: admitted=%d completed=%d dropped=%d forced=%v",
				rep.Drain.Admitted, rep.Drain.Completed, rep.Drain.Dropped, rep.Drain.Forced),
		})
	}

	// Goroutines need a moment to unwind after Close/Shutdown; poll before
	// declaring a leak. A small slack absorbs runtime background goroutines.
	const slack = 5
	leaked := 0
	for deadline := time.Now().Add(10 * time.Second); ; {
		leaked = runtime.NumGoroutine() - baselineGoroutines
		if leaked <= slack || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if leaked > slack {
		rep.GoroutinesLeaked = leaked
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		addFinding(Finding{
			Oracle: "chaos-goroutine-leak",
			Seed:   opts.Seed,
			Detail: fmt.Sprintf("%d goroutines above baseline %d after shutdown\n%s",
				leaked, baselineGoroutines, truncate(string(buf[:n]), 4000)),
		})
	}
	if baselineFDs > 0 {
		if after := countFDs(); after > baselineFDs+slack {
			addFinding(Finding{
				Oracle: "chaos-fd-leak",
				Seed:   opts.Seed,
				Detail: fmt.Sprintf("%d file descriptors above baseline %d after shutdown", after-baselineFDs, baselineFDs),
			})
		}
	}

	rep.Requests = requests.Load()
	rep.OK = okCalls.Load()
	rep.TypedErrs = typed.Load()
	rep.Transport = transport.Load()
	rep.Hangs = hangs.Load()
	// The fault rates are meant to be survivable: a sweep in which nothing
	// succeeded exercised the failure paths only and proves none of the above
	// about a working exchange.
	if rep.OK == 0 {
		addFinding(Finding{
			Oracle: "chaos-no-survivor",
			Seed:   opts.Seed,
			Detail: fmt.Sprintf("none of %d requests succeeded (%d typed, %d transport)", rep.Requests, rep.TypedErrs, rep.Transport),
		})
	}
	logf("chaos: %d requests: %d ok, %d typed, %d transport, %d hangs; proxy %+v; findings %d",
		rep.Requests, rep.OK, rep.TypedErrs, rep.Transport, rep.Hangs, rep.Proxy, len(rep.Findings))
	return rep, nil
}

type chaosErrClass int

const (
	chaosOK chaosErrClass = iota
	chaosTyped
	chaosTransport
)

// classifyChaosErr buckets a call outcome. Typed protocol errors carry a
// server-assigned code; everything else that failed promptly is transport
// loss (the chaos proxy's resets and tears land here, as does client-side
// deadline enforcement — the call FAILED FAST, which is the contract).
func classifyChaosErr(err error) chaosErrClass {
	switch {
	case err == nil:
		return chaosOK
	case errors.Is(err, protocol.ErrOverloaded),
		errors.Is(err, protocol.ErrDraining),
		errors.Is(err, protocol.ErrRateLimited),
		errors.Is(err, protocol.ErrTimeout):
		return chaosTyped
	case strings.Contains(err.Error(), "protocol: "):
		return chaosTyped // non-sentinel code (bad_request, sql_error, ...)
	default:
		return chaosTransport
	}
}

// countFDs returns the process's open file descriptor count, or 0 where
// /proc is unavailable (non-Linux).
func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(ents)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "\n... (truncated)"
}
