package optimizer

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"autostats/internal/query"
)

// The join enumerator as it stood before the bitmask-table rewrite, kept
// verbatim as the reference TestEnumeratorMatchesReference compares the
// current one against: a *Node per candidate, a predicate list per split, the
// first strictly cheaper candidate wins. Only the names changed
// (referenceOptimize, referenceJoinCandidates), and the what-if
// configuration became an argument.

func (s *Session) referenceOptimize(q *query.Select, w WhatIf) (*Plan, error) {
	e := newEstimator(s, q, w)

	// Map table -> bit position, rejecting self-joins.
	pos := make(map[string]int, len(q.Tables))
	tables := make([]string, len(q.Tables))
	for i, t := range q.Tables {
		lt := strings.ToLower(t)
		if _, dup := pos[lt]; dup {
			return nil, fmt.Errorf("optimizer: self-join on table %s is not supported", t)
		}
		pos[lt] = i
		tables[i] = lt
	}

	// Base table info: raw rows, filtered selectivity, best access path.
	base := make([]baseInfo, len(tables))
	for i, t := range tables {
		td, err := s.prov.Database().Table(t)
		if err != nil {
			return nil, err
		}
		n := float64(td.RowCount())
		filters := q.FiltersOn(t)
		sel := e.tableSelectivity(t, filters)
		base[i] = baseInfo{rawRows: n, sel: sel, plan: e.bestAccessPath(t, n, sel, filters)}
	}

	// Group join predicates by (unordered) table pair, orienting Left to the
	// lower-position table so multi-column lookups see consistent sides.
	type pairKey struct{ lo, hi int }
	groups := make(map[pairKey][]query.JoinPred)
	var pairs []pairKey
	for _, j := range q.Joins {
		li, lok := pos[strings.ToLower(j.Left.Table)]
		ri, rok := pos[strings.ToLower(j.Right.Table)]
		if !lok || !rok {
			return nil, fmt.Errorf("optimizer: join predicate %s references a table not in FROM", j)
		}
		if li == ri {
			return nil, fmt.Errorf("optimizer: join predicate %s joins a table to itself", j)
		}
		if li > ri {
			li, ri = ri, li
			j.Left, j.Right = j.Right, j.Left
		}
		k := pairKey{li, ri}
		if _, ok := groups[k]; !ok {
			pairs = append(pairs, k)
		}
		groups[k] = append(groups[k], j)
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].lo != pairs[b].lo {
			return pairs[a].lo < pairs[b].lo
		}
		return pairs[a].hi < pairs[b].hi
	})
	pairSel := make(map[pairKey]float64, len(pairs))
	for _, k := range pairs {
		pairSel[k] = e.joinGroupSel(groups[k])
	}

	full := (1 << len(tables)) - 1

	// card returns the estimated output cardinality of joining a table
	// subset: product of filtered base cardinalities and the selectivities
	// of all join-predicate groups internal to the subset.
	cardMemo := make(map[int]float64)
	var card func(mask int) float64
	card = func(mask int) float64 {
		if c, ok := cardMemo[mask]; ok {
			return c
		}
		c := 1.0
		for i := range tables {
			if mask&(1<<i) != 0 {
				c *= base[i].rawRows * base[i].sel
			}
		}
		for _, k := range pairs {
			if mask&(1<<k.lo) != 0 && mask&(1<<k.hi) != 0 {
				c *= pairSel[k]
			}
		}
		if c < minSelectivity {
			c = minSelectivity
		}
		cardMemo[mask] = c
		return c
	}

	// connecting returns the oriented predicates between left and right
	// submasks (Left side in leftMask, Right side in rightMask).
	connecting := func(leftMask, rightMask int) []query.JoinPred {
		var out []query.JoinPred
		for _, k := range pairs {
			var ps []query.JoinPred
			switch {
			case leftMask&(1<<k.lo) != 0 && rightMask&(1<<k.hi) != 0:
				ps = groups[k]
			case leftMask&(1<<k.hi) != 0 && rightMask&(1<<k.lo) != 0:
				for _, p := range groups[k] {
					p.Left, p.Right = p.Right, p.Left
					ps = append(ps, p)
				}
			}
			out = append(out, ps...)
		}
		return out
	}

	best := make([]*Node, full+1)
	for i := range tables {
		best[1<<i] = base[i].plan
	}

	masks := make([]int, 0, full)
	for m := 1; m <= full; m++ {
		if bits.OnesCount(uint(m)) >= 2 {
			masks = append(masks, m)
		}
	}
	sort.Slice(masks, func(a, b int) bool {
		ca, cb := bits.OnesCount(uint(masks[a])), bits.OnesCount(uint(masks[b]))
		if ca != cb {
			return ca < cb
		}
		return masks[a] < masks[b]
	})

	for _, mask := range masks {
		outRows := card(mask)
		consider := func(cartesian bool) {
			for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
				rest := mask ^ sub
				left, right := best[sub], best[rest]
				if left == nil || right == nil {
					continue
				}
				preds := connecting(sub, rest)
				if len(preds) == 0 && !cartesian {
					continue
				}
				for _, cand := range e.referenceJoinCandidates(left, right, preds, outRows, rest, tables, base, q) {
					if best[mask] == nil || cand.Cost < best[mask].Cost {
						best[mask] = cand
					}
				}
			}
		}
		consider(false)
		if best[mask] == nil {
			consider(true) // disconnected subset: cartesian product fallback
		}
	}

	root := best[full]
	if root == nil {
		return nil, fmt.Errorf("optimizer: failed to build a plan for %s", q.SQL())
	}

	aggs := aggregateSet(q)
	if cols := q.GroupingColumns(); len(cols) > 0 {
		groupRows := e.groupCount(root.EstRows)
		// Hash vs. sort-based aggregation: the choice hinges on the
		// estimated group count, i.e. the GROUP BY selectivity variable.
		op := OpHashAggregate
		cost := HashAggCost(root.EstRows, groupRows)
		if sc := StreamAggCost(root.EstRows, groupRows); sc < cost {
			op, cost = OpStreamAggregate, sc
		}
		outRows := groupRows * havingSelectivity(q)
		if outRows < 1 {
			outRows = 1
		}
		root = &Node{
			Op:         op,
			Children:   []*Node{root},
			GroupBy:    cols,
			Aggregates: aggs,
			Having:     q.Having,
			EstRows:    outRows,
			Cost:       root.Cost + cost,
		}
	} else if len(aggs) > 0 {
		// Scalar aggregate: one pass, one output row.
		root = &Node{
			Op:         OpHashAggregate,
			Children:   []*Node{root},
			Aggregates: aggs,
			Having:     q.Having,
			EstRows:    1,
			Cost:       root.Cost + CostStreamRow*root.EstRows + CostRowOut,
		}
	}
	if len(q.OrderBy) > 0 {
		root = &Node{
			Op:       OpSort,
			Children: []*Node{root},
			SortBy:   q.OrderBy,
			EstRows:  root.EstRows,
			Cost:     root.Cost + SortCost(root.EstRows),
		}
	}

	return &Plan{Root: root, Query: q, UsedStats: e.usedStats(), MissingVars: e.missingVars()}, nil
}

// referenceJoinCandidates enumerates physical join implementations of left ⋈ right.
func (e *estimator) referenceJoinCandidates(left, right *Node, preds []query.JoinPred, outRows float64, rightMask int, tables []string, base []baseInfo, q *query.Select) []*Node {
	var out []*Node
	mk := func(op Op, cost float64, index, indexCol string) {
		out = append(out, &Node{
			Op:       op,
			Children: []*Node{left, right},
			Joins:    preds,
			Index:    index,
			IndexCol: indexCol,
			EstRows:  outRows,
			Cost:     cost,
		})
	}
	outCost := CostRowOut * outRows
	if len(preds) > 0 {
		// Hash join: right child is the build side.
		mk(OpHashJoin, left.Cost+right.Cost+CostHashBuild*right.EstRows+CostHashProbe*left.EstRows+outCost, "", "")
		// Merge join: sort both inputs on the join keys.
		mk(OpMergeJoin, left.Cost+right.Cost+SortCost(left.EstRows)+SortCost(right.EstRows)+left.EstRows+right.EstRows+outCost, "", "")
	}
	// Plain nested loops: rescan the inner (right) subtree per outer row.
	outer := left.EstRows
	if outer < 1 {
		outer = 1
	}
	mk(OpNestedLoopJoin, left.Cost+outer*right.Cost+outCost, "", "")

	// Index nested loops: right side must be a single base table with an
	// index on one of its join columns.
	if bits.OnesCount(uint(rightMask)) == 1 && len(preds) > 0 {
		ti := bits.TrailingZeros(uint(rightMask))
		table := tables[ti]
		schema := e.sess.prov.Database().Schema
		for _, p := range preds {
			if !strings.EqualFold(p.Right.Table, table) {
				continue
			}
			ix, ok := schema.IndexOn(table, p.Right.Column)
			if !ok {
				continue
			}
			perProbeFetch := base[ti].rawRows * e.joinSel(p)
			if perProbeFetch < minSelectivity {
				perProbeFetch = minSelectivity
			}
			cost := left.Cost + outer*(SeekCost(base[ti].rawRows)+CostRowFetch*perProbeFetch) + outCost
			mk(OpIndexNLJoin, cost, ix.Name, p.Right.Column)
			break
		}
	}
	return out
}
