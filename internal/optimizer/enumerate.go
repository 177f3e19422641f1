package optimizer

import (
	"fmt"
	"math/bits"
	"slices"

	"autostats/internal/query"
)

// joinGroup is the join predicates between one pair of FROM positions, each
// oriented so that Left is the lower-position table: multi-column lookups see
// consistent sides whichever way the statement wrote them.
type joinGroup struct {
	lo, hi int
	preds  []query.JoinPred
}

// groupJoins groups the join predicates by unordered table pair, sorted by
// (lo, hi), predicates in statement order within a group.
func groupJoins(tables []string, joins []query.JoinPred) ([]joinGroup, error) {
	groups := make([]joinGroup, 0, len(joins))
	for _, j := range joins {
		li, ri := slices.Index(tables, j.Left.Table), slices.Index(tables, j.Right.Table)
		if li < 0 || ri < 0 {
			return nil, fmt.Errorf("optimizer: join predicate %s references a table not in FROM", j)
		}
		if li == ri {
			return nil, fmt.Errorf("optimizer: join predicate %s joins a table to itself", j)
		}
		if li > ri {
			li, ri = ri, li
			j.Left, j.Right = j.Right, j.Left
		}
		i := 0
		for i < len(groups) && (groups[i].lo < li || groups[i].lo == li && groups[i].hi < ri) {
			i++
		}
		if i == len(groups) || groups[i].lo != li || groups[i].hi != ri {
			groups = append(groups, joinGroup{})
			copy(groups[i+1:], groups[i:])
			groups[i] = joinGroup{lo: li, hi: ri}
		}
		groups[i].preds = append(groups[i].preds, j)
	}
	return groups, nil
}

// connecting returns the predicates between two disjoint table subsets,
// oriented Left in leftMask and Right in rightMask, in group order.
func connecting(groups []joinGroup, leftMask, rightMask int) []query.JoinPred {
	var out []query.JoinPred
	for _, g := range groups {
		switch {
		case leftMask&(1<<g.lo) != 0 && rightMask&(1<<g.hi) != 0:
			out = append(out, g.preds...)
		case leftMask&(1<<g.hi) != 0 && rightMask&(1<<g.lo) != 0:
			for _, p := range g.preds {
				p.Left, p.Right = p.Right, p.Left
				out = append(out, p)
			}
		}
	}
	return out
}

// subsetPlan is the cheapest way found to join one subset of the FROM list,
// held as numbers: a Node is built only for the subsets of the final plan.
type subsetPlan struct {
	rows     float64 // estimated output cardinality
	cost     float64 // cumulative cost of the cheapest alternative
	sortCost float64 // SortCost(rows): what a merge join pays to sort this input
	nbr      int     // tables some predicate joins to a table of the subset
	left     int     // left input of the cheapest split; 0 for a single table
	op       Op
	inlOuter int // OpIndexNLJoin: the left-input table whose predicate is probed
}

// offer records a join alternative if it is the subset's first or strictly
// cheaper than the one recorded, so among equals the earliest offered stays.
func (p *subsetPlan) offer(op Op, left, inlOuter int, cost float64) {
	if p.left == 0 || cost < p.cost {
		p.op, p.left, p.inlOuter, p.cost = op, left, inlOuter, cost
	}
}

// inlPath is the index-nested-loop probe of one base table through the
// predicates of one join group: the group's first predicate whose column on
// that table is indexed.
type inlPath struct {
	probe      float64 // cost per outer row: index descent plus matching fetches
	index, col string
}

// indexProbe prices probing the base table at position inner (g.lo or g.hi)
// once per outer row through g's first predicate whose column on it is
// indexed; ok is false when none is.
func (e *estimator) indexProbe(g joinGroup, inner int, table string, rawRows float64) (inlPath, bool) {
	schema := e.sess.prov.Database().Schema
	for _, p := range g.preds {
		col := p.Right.Column
		if inner == g.lo {
			col = p.Left.Column
		}
		ix, ok := schema.IndexOn(table, col)
		if !ok {
			continue
		}
		perProbeFetch := rawRows * e.joinSel(p)
		if perProbeFetch < MinSelectivity {
			perProbeFetch = MinSelectivity
		}
		return inlPath{probe: SeekCost(rawRows) + CostRowFetch*perProbeFetch, index: ix.Name, col: col}, true
	}
	return inlPath{}, false
}

// bestJoinTree finds the cheapest join order and join operators for the
// whole FROM list by dynamic programming over table subsets, every subset a
// bitmask of FROM positions and an index into one table of subsetPlan. Each
// subset is costed over all its two-way splits that a join predicate
// connects — hash, merge, nested-loop and, onto a single indexed table,
// index-nested-loop — or, when no split is connected, as a cartesian
// nested-loop product. Only floats are compared while searching; the tree
// is built afterwards from the recorded splits.
func (e *estimator) bestJoinTree(tables []string, base []baseInfo, groups []joinGroup) *Node {
	n := len(tables)
	plans := make([]subsetPlan, 1<<n)
	for i, b := range base {
		plans[1<<i] = subsetPlan{rows: b.plan.EstRows, cost: b.plan.Cost, sortCost: SortCost(b.plan.EstRows)}
	}

	// Per join group: its combined selectivity, each end in the other's
	// neighbour mask, and the index-nested-loop probe with either end as the
	// inner table. inl[inner*n+outer] holds the probe; inlFrom[inner] has a
	// bit per outer table that offers one.
	groupSel := make([]float64, len(groups))
	inl := make([]inlPath, n*n)
	inlFrom := make([]int, n)
	for gi, g := range groups {
		groupSel[gi] = e.joinGroupSel(g.preds)
		plans[1<<g.lo].nbr |= 1 << g.hi
		plans[1<<g.hi].nbr |= 1 << g.lo
		for _, end := range [2][2]int{{g.hi, g.lo}, {g.lo, g.hi}} {
			inner, outer := end[0], end[1]
			if path, ok := e.indexProbe(g, inner, tables[inner], base[inner].rawRows); ok {
				inl[inner*n+outer] = path
				inlFrom[inner] |= 1 << outer
			}
		}
	}

	// Every proper subset of a mask is numerically smaller, so ascending
	// order has both halves of each split costed before the mask itself.
	for mask := 3; mask < len(plans); mask++ {
		low := mask & -mask
		if mask == low {
			continue // single table
		}
		cur := &plans[mask]
		cur.nbr = plans[low].nbr | plans[mask^low].nbr

		// Cardinality: filtered base rows in FROM order, then the selectivity
		// of every group inside the subset in group order.
		rows := 1.0
		for i, b := range base {
			if mask&(1<<i) != 0 {
				rows *= b.rawRows * b.sel
			}
		}
		for gi, g := range groups {
			if mask&(1<<g.lo) != 0 && mask&(1<<g.hi) != 0 {
				rows *= groupSel[gi]
			}
		}
		if rows < MinSelectivity {
			rows = MinSelectivity
		}
		cur.rows, cur.sortCost = rows, SortCost(rows)
		outCost := CostRowOut * rows

		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			rest := mask ^ sub
			l, r := &plans[sub], &plans[rest]
			if l.nbr&rest == 0 {
				continue
			}
			// Hash join: right child is the build side.
			cur.offer(OpHashJoin, sub, 0, l.cost+r.cost+CostHashBuild*r.rows+CostHashProbe*l.rows+outCost)
			// Merge join: sort both inputs on the join keys.
			cur.offer(OpMergeJoin, sub, 0, l.cost+r.cost+l.sortCost+r.sortCost+l.rows+r.rows+outCost)
			// Plain nested loops: rescan the inner (right) subtree per outer row.
			outer := l.rows
			if outer < 1 {
				outer = 1
			}
			cur.offer(OpNestedLoopJoin, sub, 0, l.cost+outer*r.cost+outCost)
			// Index nested loops: the right side must be a single base table
			// with an index on one of its join columns. Of the groups
			// connecting it to sub, the first in group order with an indexed
			// predicate is probed — the one from sub's lowest such table,
			// because the groups of one table sort by the other table.
			if rest&(rest-1) == 0 {
				inner := bits.TrailingZeros(uint(rest))
				if from := sub & inlFrom[inner]; from != 0 {
					o := bits.TrailingZeros(uint(from))
					cur.offer(OpIndexNLJoin, sub, o, l.cost+outer*inl[inner*n+o].probe+outCost)
				}
			}
		}
		if cur.left != 0 {
			continue
		}
		// Disconnected subset: cartesian product, nested loops only.
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			l, r := &plans[sub], &plans[mask^sub]
			outer := l.rows
			if outer < 1 {
				outer = 1
			}
			cur.offer(OpNestedLoopJoin, sub, 0, l.cost+outer*r.cost+outCost)
		}
	}

	var build func(mask int) *Node
	build = func(mask int) *Node {
		p := &plans[mask]
		if p.left == 0 {
			return base[bits.TrailingZeros(uint(mask))].plan
		}
		right := mask ^ p.left
		node := &Node{
			Op:       p.op,
			Children: []*Node{build(p.left), build(right)},
			Joins:    connecting(groups, p.left, right),
			EstRows:  p.rows,
			Cost:     p.cost,
		}
		if p.op == OpIndexNLJoin {
			path := inl[bits.TrailingZeros(uint(right))*n+p.inlOuter]
			node.Index, node.IndexCol = path.index, path.col
		}
		return node
	}
	return build(len(plans) - 1)
}
