package main

import (
	"context"
	"fmt"
	"time"

	"autostats"
	"autostats/client"
	"autostats/internal/datagen"
	"autostats/internal/executor"
	"autostats/internal/histogram"
	"autostats/internal/obs"
	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/server"
	"autostats/internal/sqlparser"
	"autostats/internal/stats"
	"autostats/internal/storage"
)

// Every workload runs on TPCD_2: Zipf z = 2 in every column, the database
// seed of the paper's named configuration. The run's seed picks statements
// and constants only, so all runs share one database per scale.
const (
	dbSkew = 2
	dbSeed = 42
	tenant = "bench"
	// conns is the number of client connections: the sandbox has two CPUs
	// and the load generator shares them with the server.
	conns = 2
)

func newSystem(scale float64) (*autostats.System, error) {
	return autostats.GenerateTPCD(autostats.TPCDOptions{Scale: scale, Skew: dbSkew, Seed: dbSeed})
}

// stack is the engine assembled from the exported constructors of the
// internal packages, over a database identical to the one a System of the
// same scale holds. The facade does not expose its parts, so layers are
// timed here, on the same statements.
type stack struct {
	db    *storage.Database
	reg   *obs.Registry
	mgr   *stats.Manager
	sess  *optimizer.Session
	cache *optimizer.PlanCache
	ex    *executor.Executor
}

func newStack(scale float64) (*stack, error) {
	db, err := datagen.Generate(datagen.Config{Scale: scale, Z: dbSkew, Seed: dbSeed})
	if err != nil {
		return nil, err
	}
	return stackOver(db), nil
}

// stackOver builds a fresh manager, session, plan cache and executor over
// db, reporting to a registry of its own.
func stackOver(db *storage.Database) *stack {
	st := &stack{db: db, reg: obs.New()}
	st.mgr = stats.NewManager(db, histogram.MaxDiff, 0)
	st.mgr.SetObsRegistry(st.reg)
	st.sess = optimizer.NewSession(st.mgr)
	st.cache = optimizer.NewPlanCache(autostats.DefaultPlanCacheCapacity)
	st.sess.SetPlanCache(st.cache)
	st.ex = executor.New(db)
	return st
}

// mirror creates on the stack every statistic sys holds.
func (st *stack) mirror(sys *autostats.System) error {
	for _, s := range sys.Statistics() {
		if _, _, err := st.mgr.Ensure(s.Table, s.Columns); err != nil {
			return fmt.Errorf("mirror %s: %w", s.ID, err)
		}
	}
	return nil
}

func (st *stack) parseSelects(sqls []string) ([]*query.Select, error) {
	out := make([]*query.Select, 0, len(sqls))
	for _, sql := range sqls {
		q, err := sqlparser.ParseSelect(st.db.Schema, sql)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", sql, err)
		}
		out = append(out, q)
	}
	return out, nil
}

// daemon is an in-process server on loopback serving one pre-built system
// as its only tenant, with the server's default knobs, plus its clients.
type daemon struct {
	srv     *server.Server
	clients []*client.Client
}

func startDaemon(sys *autostats.System, nclients int) (*daemon, error) {
	srv, err := server.New(server.Config{
		Addr:      "127.0.0.1:0",
		NewTenant: func(string) (*autostats.System, error) { return sys, nil },
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	d := &daemon{srv: srv}
	for i := 0; i < nclients; i++ {
		c, err := client.Dial(srv.Addr().String(), client.Options{Tenant: tenant})
		if err != nil {
			d.stop()
			return nil, err
		}
		d.clients = append(d.clients, c)
	}
	return d, nil
}

// stop closes the clients and drains the server; it returns once every
// goroutine of both has ended.
func (d *daemon) stop() server.DrainReport {
	for _, c := range d.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return d.srv.Shutdown(ctx)
}

func dropAllStatistics(sys *autostats.System) {
	for _, s := range sys.Statistics() {
		sys.DropStatistic(s.Table, s.Columns...)
	}
}
