package main

import (
	"fmt"
	"math/rand"
	"strconv"
)

// The statement streams are generated here, from the run's seed, and reach
// the program only as SQL text. Templates are fixed; the seed picks which
// template comes next and its constants. Every column of TPCD_2 is Zipf
// z = 2, so the first value of a non-key column holds ~61 % of the rows:
// predicates on such columns are placed in the tail on purpose, which is
// what keeps results (and DML effects) bounded and alike across seeds.

// dims holds the key ranges the templates draw constants from. The row
// counts follow internal/datagen's base counts (TPC-D SF 1 / 1000);
// TestDimsMatchDatagen pins them to the generated database.
type dims struct {
	supplier, customer, part, orders int
}

func dimsAt(scale float64) dims {
	n := func(base int) int {
		if v := int(float64(base) * scale); v > 1 {
			return v
		}
		return 1
	}
	return dims{supplier: n(10), customer: n(150), part: n(200), orders: n(1500)}
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// tail returns a key in the upper nine tenths of [0, n): under z = 2 the
// foreign keys that reference such a key are few.
func tail(rng *rand.Rand, n int) int {
	lo := n / 10
	return lo + rng.Intn(n-lo)
}

// serveHotStream: point and selective statements, at most a handful of rows
// per response, five templates so the plan cache is hit on every request
// once warm.
func serveHotStream(rng *rand.Rand, d dims, n int) []string {
	out := make([]string, n)
	for i := range out {
		switch rng.Intn(5) {
		case 0:
			out[i] = fmt.Sprintf("SELECT * FROM orders WHERE o_orderkey = %d", rng.Intn(d.orders))
		case 1:
			out[i] = fmt.Sprintf("SELECT * FROM customer WHERE c_custkey = %d", rng.Intn(d.customer))
		case 2:
			out[i] = fmt.Sprintf("SELECT * FROM lineitem WHERE l_orderkey = %d", tail(rng, d.orders))
		case 3:
			out[i] = fmt.Sprintf("SELECT * FROM orders, customer WHERE o_custkey = c_custkey AND o_orderkey = %d", rng.Intn(d.orders))
		default:
			out[i] = fmt.Sprintf("SELECT l_linenumber, COUNT(*) FROM lineitem WHERE l_orderkey = %d GROUP BY l_linenumber", tail(rng, d.orders))
		}
	}
	return out
}

// serveWideStream: range scans and a join whose results run to hundreds or
// thousands of rows. The constants are ranks of the Zipf value ladders of
// internal/datagen (l_quantity 1..50; o_totalprice and l_extendedprice evenly
// spaced floats), chosen so a result is a few per cent of its table.
func serveWideStream(rng *rand.Rand, d dims, n int) []string {
	out := make([]string, n)
	for i := range out {
		switch rng.Intn(4) {
		case 0:
			out[i] = fmt.Sprintf("SELECT * FROM lineitem WHERE l_quantity > %d", 6+rng.Intn(18))
		case 1:
			out[i] = fmt.Sprintf("SELECT * FROM orders WHERE o_totalprice > %s", ftoa(850+110.83*float64(1+rng.Intn(6))))
		case 2:
			out[i] = fmt.Sprintf("SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > %d", 12+rng.Intn(24))
		default:
			out[i] = fmt.Sprintf("SELECT * FROM lineitem WHERE l_extendedprice > %s", ftoa(900+20.82*float64(6+rng.Intn(18))))
		}
	}
	return out
}

// churnGen produces the churn_onfly stream: half SELECT, half DML. It keeps
// the next fresh order key so inserts never collide.
type churnGen struct {
	rng     *rand.Rand
	d       dims
	nextKey int
}

func newChurnGen(rng *rand.Rand, d dims) *churnGen {
	return &churnGen{rng: rng, d: d, nextKey: d.orders}
}

func (g *churnGen) date() int { return 8035 + g.rng.Intn(2556) }

// rank draws a heavy-tailed rank in [0, n): P(rank >= k) is about 1/k, like
// the Zipf columns it overwrites, so updates keep the data skewed and the
// range predicates of the SELECT templates stay selective as the run ages.
func (g *churnGen) rank(n int) int {
	r := int(1/(1-g.rng.Float64())) - 1
	if r >= n {
		r = n - 1
	}
	return r
}

func (g *churnGen) selectStmt() string {
	r, d := g.rng, g.d
	switch r.Intn(6) {
	case 0:
		return fmt.Sprintf("SELECT * FROM orders WHERE o_orderkey = %d", r.Intn(d.orders))
	case 1:
		return fmt.Sprintf("SELECT * FROM lineitem WHERE l_orderkey = %d", tail(r, d.orders))
	case 2:
		return fmt.Sprintf("SELECT * FROM orders, customer WHERE o_custkey = c_custkey AND o_totalprice > %s",
			ftoa(850+110.83*float64(40+r.Intn(400))))
	case 3:
		return fmt.Sprintf("SELECT o_orderpriority, COUNT(*) FROM orders WHERE o_orderdate >= DATE %d GROUP BY o_orderpriority",
			8035+20+r.Intn(400))
	case 4:
		return fmt.Sprintf("SELECT * FROM lineitem, part WHERE l_partkey = p_partkey AND p_size = %d AND l_quantity > %d",
			2+r.Intn(20), 10+r.Intn(30))
	default:
		return fmt.Sprintf("SELECT * FROM customer WHERE c_acctbal > %s AND c_nationkey = %d",
			ftoa(-999.99+5.5*float64(10+r.Intn(200))), r.Intn(25))
	}
}

// dmlStmt writes bounded amounts: inserts add one row; updates rewrite a
// non-indexed column over 5 % of a primary-key range (enough to cross the
// maintenance policy's 20 % refresh threshold every few passes); deletes
// remove a few keys. Primary keys are the only uniformly spread columns, so
// ranges on them are the only predicates whose effect does not depend on
// the seed.
//
// The weights place the stream's median and 95th percentile inside a class
// of statements and not on the edge between two. By cost the statements
// fall into: microseconds (inserts, key seeks; 27 % of the stream), customer
// and part scans (13 %), orders scans (42 %: two SELECT templates, the
// orders updates and deletes) and lineitem scans (18 %). With equal weights
// the median sat exactly between the second and third class and moved by
// 40 % with the seed.
func (g *churnGen) dmlStmt() string {
	r, d := g.rng, g.d
	span := func(n int) (int, int) {
		w := n / 20
		if w < 1 {
			w = 1
		}
		lo := r.Intn(n)
		return lo, lo + w
	}
	switch k := r.Intn(10); {
	case k < 1:
		key := g.nextKey
		g.nextKey++
		return fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, 'O', %s, DATE %d, '3-MEDIUM', 'Clerk#000001', 0, 'comment#000001')",
			key, r.Intn(d.customer), ftoa(850+110.83*float64(g.rank(5000))), g.date())
	case k < 2:
		return fmt.Sprintf("INSERT INTO lineitem VALUES (%d, %d, %d, %d, %d, %s, 0.05, 0.02, 'N', 'O', DATE %d, DATE %d, DATE %d, 'NONE', 'AIR', 'comment#000001')",
			tail(r, g.nextKey), r.Intn(d.part), r.Intn(d.supplier), 1+r.Intn(7), 1+r.Intn(50),
			ftoa(900+20.82*float64(g.rank(5000))), g.date(), g.date(), g.date())
	case k < 6:
		lo, hi := span(d.orders)
		return fmt.Sprintf("UPDATE orders SET o_totalprice = %s WHERE o_orderkey >= %d AND o_orderkey < %d",
			ftoa(850+110.83*float64(g.rank(5000))), lo, hi)
	case k < 7:
		if r.Intn(2) == 0 {
			lo, hi := span(d.customer)
			return fmt.Sprintf("UPDATE customer SET c_acctbal = %s WHERE c_custkey >= %d AND c_custkey < %d",
				ftoa(-999.99+5.5*float64(g.rank(2000))), lo, hi)
		}
		lo, hi := span(d.part)
		return fmt.Sprintf("UPDATE part SET p_retailprice = %s WHERE p_partkey >= %d AND p_partkey < %d",
			ftoa(900+float64(r.Intn(1100))), lo, hi)
	case k < 8:
		lo := r.Intn(d.orders)
		return fmt.Sprintf("DELETE FROM orders WHERE o_orderkey >= %d AND o_orderkey < %d", lo, lo+4)
	default:
		// A fifth of the DML, a tenth of all statements, scans lineitem:
		// the slowest class of statement is then wider than the top 5 %,
		// so the 95th percentile sits inside it and not on its edge.
		return fmt.Sprintf("DELETE FROM lineitem WHERE l_orderkey = %d", tail(r, d.orders))
	}
}

func (g *churnGen) stream(n int) []string {
	out := make([]string, n)
	for i := range out {
		if g.rng.Intn(2) == 0 {
			out[i] = g.selectStmt()
		} else {
			out[i] = g.dmlStmt()
		}
	}
	return out
}

// dmlProbe is a short DML-only stream for the workloads that have no writes
// of their own; the generic layer probes time it on a scratch database.
func dmlProbe(rng *rand.Rand, d dims, n int) []string {
	g := newChurnGen(rng, d)
	out := make([]string, n)
	for i := range out {
		out[i] = g.dmlStmt()
	}
	return out
}

func isSelect(sql string) bool { return len(sql) >= 6 && sql[:6] == "SELECT" }
