package bench

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autostats/client"
)

// SwarmConfig shapes a client swarm against one server address.
type SwarmConfig struct {
	// Sessions is the number of concurrent client sessions; each session
	// opens its own connection and issues requests serially.
	Sessions int
	// Tenants spreads the sessions round-robin across this many tenants
	// ("t0".."tN-1").
	Tenants int
	// RequestsPerSession is how many exec requests each session issues.
	RequestsPerSession int
	// TuneEvery makes every TuneEvery-th session run one single-query tune
	// after its execs (0 disables tuning).
	TuneEvery int
}

// SwarmResult aggregates one swarm run.
type SwarmResult struct {
	Sessions   int
	Tenants    int
	Requests   int64
	Failures   int64
	Wall       time.Duration
	Throughput float64 // requests per second, swarm-wide
	P50        time.Duration
	P99        time.Duration
	Max        time.Duration
	// FirstError samples one failure for the report (empty when Failures==0).
	FirstError string
}

// swarmTemplates are the repeated exec templates; repeating a small set per
// tenant is what drives the multi-tenant plan-cache hit rate.
var swarmTemplates = []string{
	"SELECT * FROM orders WHERE o_orderkey > 10",
	"SELECT * FROM lineitem WHERE l_quantity > 45",
	"SELECT * FROM orders WHERE o_totalprice > 1000",
	"SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 45",
}

// Swarm runs cfg.Sessions concurrent client sessions against addr and
// aggregates latency and failure counts. It works against an in-process
// server or an external daemon (cmd/experiments -swarm-addr).
func Swarm(ctx context.Context, addr string, cfg SwarmConfig) (*SwarmResult, error) {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 1
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 1
	}
	if cfg.RequestsPerSession <= 0 {
		cfg.RequestsPerSession = 1
	}
	var (
		wg        sync.WaitGroup
		requests  atomic.Int64
		failures  atomic.Int64
		firstErr  atomic.Pointer[string]
		latMu     sync.Mutex
		latencies []time.Duration
	)
	recordErr := func(err error) {
		failures.Add(1)
		msg := err.Error()
		firstErr.CompareAndSwap(nil, &msg)
	}
	start := time.Now()
	for i := 0; i < cfg.Sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", i%cfg.Tenants)
			c, err := client.Dial(addr, client.Options{Tenant: tenant})
			if err != nil {
				recordErr(fmt.Errorf("session %d dial: %w", i, err))
				return
			}
			defer c.Close()
			local := make([]time.Duration, 0, cfg.RequestsPerSession)
			for j := 0; j < cfg.RequestsPerSession; j++ {
				sql := swarmTemplates[(i+j)%len(swarmTemplates)]
				t0 := time.Now()
				_, err := c.Exec(ctx, sql)
				d := time.Since(t0)
				requests.Add(1)
				if err != nil {
					recordErr(fmt.Errorf("session %d exec: %w", i, err))
					return
				}
				local = append(local, d)
			}
			if cfg.TuneEvery > 0 && i%cfg.TuneEvery == 0 {
				t0 := time.Now()
				_, err := c.Tune(ctx, []string{swarmTemplates[3]}, nil)
				d := time.Since(t0)
				requests.Add(1)
				if err != nil {
					recordErr(fmt.Errorf("session %d tune: %w", i, err))
					return
				}
				local = append(local, d)
			}
			latMu.Lock()
			latencies = append(latencies, local...)
			latMu.Unlock()
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	res := &SwarmResult{
		Sessions: cfg.Sessions,
		Tenants:  cfg.Tenants,
		Requests: requests.Load(),
		Failures: failures.Load(),
		Wall:     wall,
	}
	if msg := firstErr.Load(); msg != nil {
		res.FirstError = *msg
	}
	if wall > 0 {
		res.Throughput = float64(res.Requests) / wall.Seconds()
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
		res.P50 = latencies[len(latencies)/2]
		res.P99 = latencies[len(latencies)*99/100]
		res.Max = latencies[len(latencies)-1]
	}
	return res, nil
}
