package client_test

import (
	"context"
	"reflect"
	"testing"

	"autostats"
	"autostats/client"
	"autostats/internal/server"
)

// nilEmpty sets every empty slice reachable from v to nil, so that DeepEqual
// treats a slice the wire omitted (omitempty) and an empty one alike.
func nilEmpty(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			nilEmpty(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			nilEmpty(v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.SetZero()
		}
		for i := 0; i < v.Len(); i++ {
			nilEmpty(v.Index(i))
		}
	}
}

// sameAnswer fails the test unless the wire's answer and the in-process one,
// both pointers, are deeply equal, nil and empty slices alike.
func sameAnswer(t *testing.T, what string, wire, local any) {
	t.Helper()
	nilEmpty(reflect.ValueOf(wire))
	nilEmpty(reflect.ValueOf(local))
	if !reflect.DeepEqual(wire, local) {
		t.Fatalf("%s: the wire's answer differs from the in-process one:\nwire  %+v\nlocal %+v", what, wire, local)
	}
}

// TestWireMatchesInProcess: what a client receives is what the facade
// returns in-process, field for field — the server forwards the facade's
// results as the wire's messages, and the codec round-trips them exactly.
// The tenant factory hands the server a System the test holds, so each
// answer can be compared with the same call made on that System directly.
func TestWireMatchesInProcess(t *testing.T) {
	gen := func() *autostats.System {
		sys, err := autostats.GenerateTPCD(autostats.TPCDOptions{Scale: 0.05, Skew: 1})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	served, twin := gen(), gen()
	s := startServer(t, server.Config{NewTenant: func(string) (*autostats.System, error) { return served, nil }})
	c, err := client.Dial(s.Addr().String(), client.Options{Tenant: "held"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	workload := []string{
		"SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 45",
		"SELECT o_orderpriority FROM orders WHERE o_totalprice > 1000 GROUP BY o_orderpriority",
	}
	opts := autostats.TuneOptions{Shrink: true}
	wireRep, err := c.Tune(ctx, workload, &opts)
	if err != nil {
		t.Fatal(err)
	}
	localRep, err := twin.TuneWorkloadCtx(ctx, workload, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(localRep.Created) == 0 {
		t.Fatal("the tune built nothing; the comparison would be vacuous")
	}
	sameAnswer(t, "tune", wireRep, localRep)

	wireStats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	localStats := served.Statistics()
	sameAnswer(t, "stats", &wireStats, &localStats)

	for _, sql := range []string{
		"SELECT * FROM orders WHERE o_orderkey = 7",                                      // point lookup
		"SELECT * FROM lineitem WHERE l_quantity > 10 AND l_quantity < 20",               // range
		"SELECT * FROM customer, orders WHERE c_custkey = o_custkey AND o_orderkey < 40", // two-way join
		"SELECT o_orderpriority, COUNT(*) FROM orders GROUP BY o_orderpriority",          // GROUP BY
	} {
		wire, err := c.Exec(ctx, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		local, err := served.ExecCtx(ctx, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if len(local.Rows) == 0 {
			t.Fatalf("%s returned no rows; the comparison would be vacuous", sql)
		}
		sameAnswer(t, sql, wire, local)
	}
}
