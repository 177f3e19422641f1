// Command autostatsd serves the automated-statistics facade over TCP: a
// multi-tenant stats-as-a-service daemon speaking the length-prefixed JSON
// protocol of internal/protocol. Each tenant gets its own skewed TPC-D
// database, statistics manager, optimizer and plan cache, created lazily on
// first use and evicted after -tenant-ttl idle.
//
// Usage:
//
//	autostatsd -addr 127.0.0.1:7744 -scale 0.1 -skew 2
//	autostatsd -addr :7744 -metrics-addr 127.0.0.1:7745 -workers 8
//
// Admission control bounds the in-server queue: when it is full, requests
// fast-fail with the "overloaded" code instead of piling up. SIGINT/SIGTERM
// drain gracefully — the listener closes, new requests are rejected with
// "draining", and every admitted request completes (bounded by
// -drain-timeout) before the process exits. The exit status encodes the
// drain guarantee: nonzero if any admitted request was dropped.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"autostats"
	"autostats/internal/server"
)

var (
	addr        = flag.String("addr", "127.0.0.1:7744", "TCP listen address")
	workers     = flag.Int("workers", 0, "worker pool size (0 = 2x GOMAXPROCS, min 4)")
	queue       = flag.Int("queue", 0, "admission queue depth (0 = 16x workers)")
	maxFrame    = flag.Int("max-frame", 0, "max frame payload bytes (0 = 4 MiB)")
	scale       = flag.Float64("scale", 0.1, "per-tenant TPC-D scale factor")
	skew        = flag.Float64("skew", 2, "per-tenant Zipfian skew z")
	dbSeed      = flag.Int64("db-seed", 42, "per-tenant database generator seed")
	maxTenants  = flag.Int("max-tenants", 64, "max live tenant systems")
	tenantTTL   = flag.Duration("tenant-ttl", 10*time.Minute, "evict tenants idle this long (<0 disables)")
	planCache   = flag.Int("plan-cache", 0, "per-tenant plan cache capacity (0 = default)")
	buildMem    = flag.Int64("build-mem-budget", 0, "per-tenant statistic-build memory budget in bytes: finished partials past the budget spill to temp files (0 = unbounded)")
	metricsAddr = flag.String("metrics-addr", "", "optional HTTP address serving the metrics registry (text, or ?format=json) plus /healthz and /readyz probes")
	drainTO     = flag.Duration("drain-timeout", 30*time.Second, "max time to finish in-flight requests on shutdown")
	readTO      = flag.Duration("read-timeout", 0, "per-connection read/idle deadline; silent and half-open connections are evicted after this long (0 = server default 2m, <0 disables)")
	writeTO     = flag.Duration("write-timeout", 0, "per-response write deadline; a client stalling the TCP window longer is evicted (0 = server default 30s, <0 disables)")
	requestTO   = flag.Duration("request-timeout", 0, "server-side deadline per request once a worker picks it up; exceeding it fails typed with the timeout code (0 = unbounded)")
	tenantRPS   = flag.Float64("tenant-rps", 0, "per-tenant request quota in req/s; tenants over it are rejected with the rate_limited code (0 disables)")
	tenantBurst = flag.Int("tenant-burst", 0, "per-tenant quota burst (0 = one second of -tenant-rps)")
	maxInflight = flag.Int("max-inflight-per-conn", 0, "max requests one connection may have in flight; excess fast-fails overloaded (0 = server default 256, <0 disables)")
	waitReady   = flag.Bool("wait-ready", false, "do not serve: poll http://<-metrics-addr>/readyz of an already-running daemon until it reports ready, then exit (0 ready, 1 not ready in time) — for scripts that start the daemon in the background")
	waitTO      = flag.Duration("wait-timeout", 30*time.Second, "give up on -wait-ready after this long")
	verbose     = flag.Bool("verbose", false, "log per-lifecycle-event detail")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "autostatsd:", err)
		os.Exit(1)
	}
}

func run() error {
	logger := log.New(os.Stderr, "autostatsd: ", log.LstdFlags)

	if *waitReady {
		return waitForReady(*metricsAddr, *waitTO)
	}

	newTenant := func(name string) (*autostats.System, error) {
		start := time.Now()
		sys, err := autostats.GenerateTPCD(autostats.TPCDOptions{
			Scale: *scale, Skew: *skew, Seed: *dbSeed,
		})
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", name, err)
		}
		// Configure before the system serves traffic (the facade's
		// configure-then-serve contract).
		if *planCache > 0 {
			sys.SetPlanCacheCapacity(*planCache)
		}
		if *buildMem != 0 {
			if err := sys.SetBuildMemoryBudget(*buildMem); err != nil {
				return nil, fmt.Errorf("tenant %s: %w", name, err)
			}
		}
		if *verbose {
			logger.Printf("tenant %s ready in %v", name, time.Since(start).Round(time.Millisecond))
		}
		return sys, nil
	}

	srv, err := server.New(server.Config{
		Addr:               *addr,
		Workers:            *workers,
		QueueDepth:         *queue,
		MaxFrame:           *maxFrame,
		MaxTenants:         *maxTenants,
		TenantIdleTTL:      *tenantTTL,
		ReadTimeout:        *readTO,
		WriteTimeout:       *writeTO,
		RequestTimeout:     *requestTO,
		TenantRPS:          *tenantRPS,
		TenantBurst:        *tenantBurst,
		MaxInflightPerConn: *maxInflight,
		NewTenant:          newTenant,
		Logf:               logger.Printf,
	})
	if err != nil {
		return err
	}

	if *metricsAddr != "" {
		bound, stop, err := server.ServeOps(*metricsAddr, srv.Obs(), srv.Ready)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		defer stop()
		logger.Printf("metrics on http://%s/ (probes: /healthz, /readyz)", bound)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := srv.Run(ctx, *drainTO)
	if err != nil {
		return err
	}

	// Flush the server registry so an operator inspecting logs after SIGTERM
	// sees final counts without having had the HTTP endpoint enabled.
	fmt.Printf("final metrics:\n")
	if err := srv.Obs().WriteText(os.Stdout); err != nil {
		return err
	}

	if rep.Dropped > 0 {
		return fmt.Errorf("drain dropped %d admitted requests (admitted=%d completed=%d forced=%v)",
			rep.Dropped, rep.Admitted, rep.Completed, rep.Forced)
	}
	logger.Printf("clean shutdown: admitted=%d completed=%d rejected_overload=%d rejected_draining=%d",
		rep.Admitted, rep.Completed, rep.RejectedOverload, rep.RejectedDraining)
	return nil
}

// waitForReady polls the running daemon's /readyz until it answers 200 or
// the timeout passes. It replaces ad-hoc "sleep and hope" startup gating in
// scripts: start autostatsd in the background with -metrics-addr, then run
// `autostatsd -wait-ready -metrics-addr <same>` before pointing load at it.
func waitForReady(metricsAddr string, timeout time.Duration) error {
	if metricsAddr == "" {
		return fmt.Errorf("-wait-ready needs -metrics-addr to know where /readyz lives")
	}
	url := fmt.Sprintf("http://%s/readyz", metricsAddr)
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: 2 * time.Second}
	var lastErr error = fmt.Errorf("never polled")
	for time.Now().Before(deadline) {
		resp, err := client.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			lastErr = fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
		} else {
			lastErr = err
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("not ready after %v: %w", timeout, lastErr)
}
