package oracle

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"autostats"
	"autostats/client"
	"autostats/internal/protocol"
	"autostats/internal/server"
)

// TestChaosSweepShort runs a CI-sized chaos sweep: a real server behind the
// fault proxy, with every robustness invariant asserted. Any finding is a
// bug in the server, client, or protocol layers.
func TestChaosSweepShort(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep spins a full server; skipped in -short")
	}
	rep, err := RunChaosSweep(ChaosOptions{
		Seed:               1,
		Sessions:           6,
		RequestsPerSession: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d requests: %d ok, %d typed, %d transport, %d hangs; proxy %+v; drain %+v",
		rep.Requests, rep.OK, rep.TypedErrs, rep.Transport, rep.Hangs, rep.Proxy, rep.Drain)
	for _, f := range rep.Findings {
		t.Errorf("%s: %s", f.Oracle, f.Detail)
	}
	if rep.Requests == 0 {
		t.Fatal("sweep issued no requests")
	}
	if rep.Hangs != 0 {
		t.Fatalf("%d calls hung past the budget", rep.Hangs)
	}
}

// TestChaosSweepDirect points the sweep at a server it did not start (strict
// mode): against a healthy server every request succeeds, the repeated
// templates hit the plan cache, and the shutdown that follows drops nothing.
// A server that admits one tenant fails three of the sweep's four, which
// strict mode must report.
func TestChaosSweepDirect(t *testing.T) {
	const sessions, perSession = 24, 4
	start := func(maxTenants int) *server.Server {
		srv, err := server.New(server.Config{
			Addr:    "127.0.0.1:0",
			Workers: 8,
			// Sized to the sweep so admission control never sheds load here;
			// overload has its own tests in internal/server and client.
			QueueDepth: 2 * sessions,
			MaxTenants: maxTenants,
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
		return srv
	}
	shutdown := func(srv *server.Server) server.DrainReport {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}

	srv := start(chaosTenants + 1)
	rep, err := RunChaosSweep(ChaosOptions{Seed: 1, Sessions: sessions, RequestsPerSession: perSession,
		Addr: srv.Addr().String()})
	var hits uint64
	for _, st := range srv.TenantPlanCacheStats() {
		hits += st.Hits
	}
	drain := shutdown(srv)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings {
		t.Errorf("%s: %s", f.Oracle, f.Detail)
	}
	if want := int64(sessions * perSession); rep.Requests != want || rep.OK != want {
		t.Errorf("sweep: %d requests, %d ok; want %d of each", rep.Requests, rep.OK, want)
	}
	if hits == 0 {
		t.Errorf("repeated templates produced no plan-cache hits")
	}
	if drain.Dropped != 0 || drain.Forced {
		t.Errorf("shutdown after the sweep: %+v", drain)
	}

	srv = start(1)
	rep, err = RunChaosSweep(ChaosOptions{Seed: 1, Sessions: sessions, RequestsPerSession: perSession,
		Addr: srv.Addr().String()})
	shutdown(srv)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Errorf("a one-tenant server passed the strict sweep: %d requests, %d ok, %d typed",
			rep.Requests, rep.OK, rep.TypedErrs)
	}
}

// TestClassifyChaosErr: only the server's coded answers are typed. A frame
// the client could not read is transport loss, however the client wraps it.
func TestClassifyChaosErr(t *testing.T) {
	_, malformed := protocol.DecodeResponse([]byte("not json"))
	if !errors.Is(malformed, protocol.ErrMalformed) {
		t.Fatalf("DecodeResponse error %v does not wrap ErrMalformed", malformed)
	}
	for _, tc := range []struct {
		name string
		err  error
		want chaosErrClass
	}{
		{"ok", nil, chaosOK},
		{"conn lost, frame too large", fmt.Errorf("%w: %w", client.ErrConnLost, protocol.ErrFrameTooLarge), chaosTransport},
		{"conn lost, malformed payload", fmt.Errorf("%w: %w", client.ErrConnLost, malformed), chaosTransport},
		{"redial, torn hello", fmt.Errorf("client: connect 127.0.0.1:1: hello: %w", malformed), chaosTransport},
		{"deadline", context.DeadlineExceeded, chaosTransport},
		{"sql error", (&protocol.Response{Code: protocol.CodeSQL}).Err(), chaosTyped},
		{"tenant limit at redial", fmt.Errorf("client: connect 127.0.0.1:1: hello rejected: %w",
			(&protocol.Response{Code: protocol.CodeTenantLimit}).Err()), chaosTyped},
		{"overloaded", protocol.ErrOverloaded, chaosTyped},
		{"draining", (&protocol.Response{Code: protocol.CodeDraining}).Err(), chaosTyped},
	} {
		if got := classifyChaosErr(tc.err); got != tc.want {
			t.Errorf("%s: classifyChaosErr(%v) = %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}
}
