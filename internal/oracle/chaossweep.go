package oracle

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"autostats"
	"autostats/client"
	"autostats/internal/chaos"
	"autostats/internal/protocol"
	"autostats/internal/server"
)

// ChaosOptions parameterizes one chaos sweep. The zero value is a small,
// CI-sized sweep; Seed alone replays a run.
type ChaosOptions struct {
	// Seed drives the fault proxy.
	Seed int64
	// Sessions is the number of concurrent client sessions (default 16).
	Sessions int
	// RequestsPerSession bounds each session's request count (default 20).
	RequestsPerSession int
	// Addr points the same session loop at a daemon already listening there,
	// with no proxy and no in-process server. Every request must then
	// succeed: any failure is a finding. The drain, tenant-cache, goroutine
	// and FD checks need the server in this process, so they run only
	// without Addr; an external daemon's drain is gated by its exit status.
	Addr string
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.Sessions == 0 {
		o.Sessions = 16
	}
	if o.RequestsPerSession == 0 {
		o.RequestsPerSession = 20
	}
	return o
}

// The sweep's fixed shape. chaosHangBudget is how long a single call may
// take before the sweep calls it a hang rather than a slow failure: far above
// every configured timeout, so only a genuinely stuck path trips it.
const (
	chaosTenants    = 4 // sessions spread round-robin over this many tenants
	chaosLatency    = 2 * time.Millisecond
	chaosJitter     = time.Millisecond
	chaosFaultProb  = 0.01 // each of corrupt, tear and reset, per chunk
	chaosHangBudget = 30 * time.Second
)

// chaosTemplates are the statements every session cycles through; each
// tenant's plan cache can hold at most this many entries.
var chaosTemplates = []string{
	"SELECT * FROM orders WHERE o_orderkey > 10",
	"SELECT * FROM lineitem WHERE l_quantity > 45",
	"SELECT * FROM customer WHERE c_custkey > 5",
	"SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 40",
}

// ChaosReport summarizes one chaos sweep.
type ChaosReport struct {
	Sessions  int
	Requests  int64
	OK        int64
	TypedErrs int64 // failures carrying a protocol error code
	Transport int64 // prompt transport failures (resets, torn frames, ...)
	Hangs     int64 // calls that exceeded chaosHangBudget — always findings
	Proxy     chaos.Stats
	Drain     server.DrainReport
	// GoroutinesLeaked is the count above baseline that never settled after
	// shutdown (0 when clean).
	GoroutinesLeaked int
	Findings         []Finding
}

// RunChaosSweep drives a real stats server with a swarm of client sessions
// and asserts the robustness invariants. Without opts.Addr the server runs in
// this process behind the fault-injecting proxy, and:
//
//   - every client-visible failure is a typed protocol error or a prompt
//     transport error — never a hang past chaosHangBudget;
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
//
// With opts.Addr the sessions dial that daemon directly and every request
// must succeed; a failure, a hang or a sweep with no OK request is a finding.
func RunChaosSweep(opts ChaosOptions) (*ChaosReport, error) {
	opts = opts.withDefaults()
	rep := &ChaosReport{Sessions: opts.Sessions}
	var findMu sync.Mutex
	addFinding := func(f Finding) {
		f.Seed = opts.Seed
		findMu.Lock()
		rep.Findings = append(rep.Findings, f)
		findMu.Unlock()
	}

	if opts.Addr != "" {
		runChaosSessions(opts.Addr, opts, rep, addFinding)
		return rep, nil
	}

	baselineGoroutines := runtime.NumGoroutine()
	baselineFDs := countFDs()

	srv, err := server.New(server.Config{
		Addr:               "127.0.0.1:0",
		Workers:            4,
		QueueDepth:         64,
		MaxTenants:         chaosTenants + 2,
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
		Latency:     chaosLatency,
		Jitter:      chaosJitter,
		CorruptProb: chaosFaultProb,
		TearProb:    chaosFaultProb,
		ResetProb:   chaosFaultProb,
	})
	if err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Shutdown(ctx)
		cancel()
		return nil, fmt.Errorf("chaos: proxy: %w", err)
	}

	runChaosSessions(proxy.Addr().String(), opts, rep, addFinding)

	// Tenant plan-cache isolation: each tenant only ever saw the template
	// statements, so its cache can hold at most that many entries. More
	// means statements leaked across tenants into its cache.
	for tenant, st := range srv.TenantPlanCacheStats() {
		if st.Size > len(chaosTemplates) {
			addFinding(Finding{
				Oracle: "chaos-cache-isolation",
				Detail: fmt.Sprintf("tenant %q plan cache holds %d entries; it only issued %d distinct statements",
					tenant, st.Size, len(chaosTemplates)),
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
			Detail: fmt.Sprintf("%d goroutines above baseline %d after shutdown\n%s",
				leaked, baselineGoroutines, truncate(string(buf[:n]), 4000)),
		})
	}
	if baselineFDs > 0 {
		if after := countFDs(); after > baselineFDs+slack {
			addFinding(Finding{
				Oracle: "chaos-fd-leak",
				Detail: fmt.Sprintf("%d file descriptors above baseline %d after shutdown", after-baselineFDs, baselineFDs),
			})
		}
	}
	return rep, nil
}

// runChaosSessions runs opts.Sessions concurrent client sessions against
// addr, each issuing opts.RequestsPerSession templated Execs, and fills in
// rep's request counts. A call past chaosHangBudget is a finding, and so is
// a sweep with no OK request; with opts.Addr set (strict mode) so is any
// failed dial or call: one finding counts them and quotes the first.
func runChaosSessions(addr string, opts ChaosOptions, rep *ChaosReport, addFinding func(Finding)) {
	strict := opts.Addr != ""
	var requests, okCalls, typed, transport, hangs, failed atomic.Int64
	var firstFailure atomic.Pointer[string]
	fail := func(format string, args ...any) {
		failed.Add(1)
		msg := fmt.Sprintf(format, args...)
		firstFailure.CompareAndSwap(nil, &msg)
	}
	var wg sync.WaitGroup
	for i := 0; i < opts.Sessions; i++ {
		wg.Add(1)
		go func(session int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{
				Tenant:         fmt.Sprintf("chaos%d", session%chaosTenants),
				DialTimeout:    2 * time.Second,
				HelloTimeout:   2 * time.Second,
				RequestTimeout: 10 * time.Second,
			})
			if err != nil {
				// Through the proxy a dial lost to chaos leaves nothing to
				// assert about an unopened session; direct, it is a failure.
				if strict {
					fail("session %d dial: %v", session, err)
				}
				return
			}
			defer c.Close()
			for j := 0; j < opts.RequestsPerSession; j++ {
				sql := chaosTemplates[(session+j)%len(chaosTemplates)]
				requests.Add(1)
				start := time.Now()
				ctx, cancel := context.WithTimeout(context.Background(), chaosHangBudget)
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
				if elapsed >= chaosHangBudget {
					hangs.Add(1)
					addFinding(Finding{
						Oracle: "chaos-hang",
						SQL:    sql,
						Detail: fmt.Sprintf("session %d request %d took %v (budget %v); err=%v",
							session, j, elapsed, chaosHangBudget, err),
					})
				} else if err != nil && strict {
					fail("session %d request %d (%s): %v", session, j, sql, err)
				}
			}
		}(i)
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		addFinding(Finding{
			Oracle: "chaos-strict",
			Detail: fmt.Sprintf("%d dials or requests against %s failed; first: %s", n, addr, *firstFailure.Load()),
		})
	}
	rep.Requests = requests.Load()
	rep.OK = okCalls.Load()
	rep.TypedErrs = typed.Load()
	rep.Transport = transport.Load()
	rep.Hangs = hangs.Load()
	// The fault rates are meant to be survivable: a sweep in which nothing
	// succeeded exercised the failure paths only and proves none of the
	// invariants about a working exchange.
	if rep.OK == 0 {
		addFinding(Finding{
			Oracle: "chaos-no-survivor",
			Detail: fmt.Sprintf("none of %d requests succeeded (%d typed, %d transport)", rep.Requests, rep.TypedErrs, rep.Transport),
		})
	}
}

type chaosErrClass int

const (
	chaosOK chaosErrClass = iota
	chaosTyped
	chaosTransport
)

// classifyChaosErr buckets a call outcome. Typed errors are the server's
// answers: a response that carried an error code, which Response.Err maps
// onto one of the protocol's code sentinels. Everything else that failed
// promptly is transport loss — the chaos proxy's resets and tears, a frame
// the client could not read (ErrFrameTooLarge, ErrMalformed wrapped in
// client.ErrConnLost or in a failed redial's hello), and client-side
// deadline enforcement: the call FAILED FAST, which is the contract.
func classifyChaosErr(err error) chaosErrClass {
	switch {
	case err == nil:
		return chaosOK
	case errors.Is(err, protocol.ErrOverloaded),
		errors.Is(err, protocol.ErrDraining),
		errors.Is(err, protocol.ErrRateLimited),
		errors.Is(err, protocol.ErrTimeout),
		errors.Is(err, protocol.ErrFailed):
		return chaosTyped
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
