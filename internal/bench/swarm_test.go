package bench

import (
	"context"
	"testing"
	"time"

	"autostats"
	"autostats/internal/server"
)

// TestSwarmInProcess drives a small swarm at an in-process server: every
// request must succeed, the repeated templates must hit the plan cache across
// tenants, and the shutdown that follows must drop nothing.
func TestSwarmInProcess(t *testing.T) {
	const sessions, tenants, perSession, tuneEvery = 24, 4, 4, 8

	srv, err := server.New(server.Config{
		Addr:    "127.0.0.1:0",
		Workers: 8,
		// Sized to the swarm so admission control never sheds load here;
		// overload has its own tests in internal/server and client.
		QueueDepth: 2 * sessions,
		MaxTenants: tenants + 1,
		NewTenant: func(string) (*autostats.System, error) {
			return autostats.GenerateTPCD(autostats.TPCDOptions{Scale: 0.02, Skew: 2})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	res, err := Swarm(context.Background(), srv.Addr().String(), SwarmConfig{
		Sessions:           sessions,
		Tenants:            tenants,
		RequestsPerSession: perSession,
		TuneEvery:          tuneEvery,
	})
	var hits uint64
	for _, st := range srv.TenantPlanCacheStats() {
		hits += st.Hits
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	drain := srv.Shutdown(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if res.Failures != 0 {
		t.Fatalf("swarm failures: %d (%s)", res.Failures, res.FirstError)
	}
	if want := int64(sessions*perSession + sessions/tuneEvery); res.Requests != want {
		t.Errorf("swarm issued %d requests, want %d", res.Requests, want)
	}
	if res.Throughput <= 0 || res.P50 <= 0 || res.P99 < res.P50 || res.Max < res.P99 {
		t.Errorf("throughput/latency summary inconsistent: %+v", res)
	}
	if hits == 0 {
		t.Errorf("repeated templates produced no multi-tenant plan-cache hits")
	}
	if drain.Dropped != 0 || drain.Forced {
		t.Errorf("shutdown after the swarm: %+v", drain)
	}
}
