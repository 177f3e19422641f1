package main

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"autostats"
	"autostats/internal/obs"
	"autostats/internal/server"
)

func testSys(t *testing.T) *autostats.System {
	t.Helper()
	sys, err := autostats.GenerateTPCD(autostats.TPCDOptions{Scale: 0.25, Skew: 2})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func drive(t *testing.T, script string) string {
	t.Helper()
	sys := testSys(t)
	var out strings.Builder
	if err := runREPL(context.Background(), sys, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestREPLQuery(t *testing.T) {
	out := drive(t, "SELECT * FROM region WHERE r_name = 'ASIA'\n.quit\n")
	if !strings.Contains(out, "ASIA") {
		t.Errorf("query output missing row:\n%s", out)
	}
	if !strings.Contains(out, "exec cost") {
		t.Errorf("missing cost summary:\n%s", out)
	}
}

func TestREPLExplainAndTune(t *testing.T) {
	out := drive(t, strings.Join([]string{
		"EXPLAIN SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey",
		"TUNE SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 45",
		".stats",
		".quit",
	}, "\n")+"\n")
	if !strings.Contains(out, "Join") {
		t.Errorf("EXPLAIN output missing join:\n%s", out)
	}
	if !strings.Contains(out, "created") || !strings.Contains(out, "lineitem(l_orderkey)") {
		t.Errorf("TUNE output missing created statistics:\n%s", out)
	}
	if !strings.Contains(out, "distinct") {
		t.Errorf(".stats output missing:\n%s", out)
	}
}

func TestREPLDMLAndMaintenance(t *testing.T) {
	out := drive(t, strings.Join([]string{
		"INSERT INTO region VALUES (9, 'X', 'c')",
		"DELETE FROM region WHERE r_regionkey = 9",
		".maintenance",
		".quit",
	}, "\n")+"\n")
	if !strings.Contains(out, "1 row(s) affected") {
		t.Errorf("DML ack missing:\n%s", out)
	}
	if !strings.Contains(out, "maintenance:") {
		t.Errorf("maintenance output missing:\n%s", out)
	}
}

func TestREPLAutoMode(t *testing.T) {
	out := drive(t, strings.Join([]string{
		".auto on",
		"SELECT * FROM orders, customer WHERE o_custkey = c_custkey AND o_totalprice > 400000",
		".stats",
		".auto off",
		".quit",
	}, "\n")+"\n")
	if !strings.Contains(out, "management ON") {
		t.Errorf("auto toggle missing:\n%s", out)
	}
	if !strings.Contains(out, "orders(o_custkey)") {
		t.Errorf("on-the-fly mode should have created join statistics:\n%s", out)
	}
}

func TestREPLErrorsAndUnknown(t *testing.T) {
	out := drive(t, "SELECT * FROM nowhere\n.bogus\n.help\n.quit\n")
	if !strings.Contains(out, "error:") {
		t.Errorf("bad SQL should report an error:\n%s", out)
	}
	if !strings.Contains(out, "unknown command .bogus") {
		t.Errorf("unknown dot-command not reported:\n%s", out)
	}
	if !strings.Contains(out, "EXPLAIN <select>") {
		t.Errorf(".help output missing:\n%s", out)
	}
}

// TestREPLEOFExitsCleanly: no .quit — EOF must end the loop without error.
func TestREPLEOFExitsCleanly(t *testing.T) {
	_ = drive(t, "SELECT COUNT(*) FROM region\n")
}

// TestREPLHealthProbe: .health reports the daemon's liveness/readiness view,
// flips when readiness does, and degrades to "unreachable" when nothing
// listens at the address.
func TestREPLHealthProbe(t *testing.T) {
	ready := atomic.Bool{}
	ready.Store(true)
	addr, stop, err := server.ServeOps("127.0.0.1:0", obs.New(), ready.Load)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	out := drive(t, ".health\n.health "+addr+"\n.quit\n")
	if !strings.Contains(out, "usage: .health") {
		t.Errorf(".health without an address should print usage:\n%s", out)
	}
	if !strings.Contains(out, "healthz  ok") || !strings.Contains(out, "readyz   ok") {
		t.Errorf("probes against a ready daemon should both be ok:\n%s", out)
	}

	ready.Store(false)
	out = drive(t, ".health "+addr+"\n.quit\n")
	if !strings.Contains(out, "healthz  ok") || !strings.Contains(out, "readyz   NOT ok") {
		t.Errorf("draining daemon must stay live but report not ready:\n%s", out)
	}

	stop()
	out = drive(t, ".health "+addr+"\n.quit\n")
	if !strings.Contains(out, "unreachable") {
		t.Errorf("probing a dead address should report unreachable:\n%s", out)
	}
}
