package core

import (
	"sort"

	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/stats"
)

// findNextStatToBuild implements §4.2: locate the most expensive operator in
// the default-magic-number plan (node cost minus children cost) that still
// has unbuilt relevant candidate statistics, and return those statistics as
// one build unit. Statistics on the two sides of a join predicate are
// dependent and returned as a pair. Only candidates that can cover a
// currently missing selectivity variable are considered — building a
// statistic for an already-covered predicate cannot move the sensitivity
// test.
func findNextStatToBuild(p *optimizer.Plan, cands []Candidate, mgr *stats.Manager, consumed map[stats.ID]bool, missing []int) []Candidate {
	missingSet := make(map[int]bool, len(missing))
	groupVarID := -1
	if p.Query != nil {
		groupVarID = p.Query.GroupVarID
	}
	for _, v := range missing {
		missingSet[v] = true
		if v == groupVarID && groupVarID >= 0 {
			missingSet[groupVarKey] = true
		}
	}
	available := func(c Candidate) bool {
		id := c.ID()
		return !consumed[id] && !mgr.Has(id)
	}
	// Index candidates by table for matching.
	byTable := map[string][]Candidate{}
	for _, c := range cands {
		byTable[c.Table] = append(byTable[c.Table], c)
	}

	// Collect nodes in DFS order, then sort by local cost descending (DFS
	// index breaks ties deterministically).
	type rankedNode struct {
		n   *optimizer.Node
		idx int
	}
	var nodes []rankedNode
	var walk func(n *optimizer.Node)
	walk = func(n *optimizer.Node) {
		nodes = append(nodes, rankedNode{n, len(nodes)})
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(p.Root)
	sort.SliceStable(nodes, func(a, b int) bool {
		la, lb := nodes[a].n.LocalCost(), nodes[b].n.LocalCost()
		if la != lb {
			return la > lb
		}
		return nodes[a].idx < nodes[b].idx
	})

	for _, rn := range nodes {
		if unit := nodeUnit(rn.n, byTable, available, missingSet); len(unit) > 0 {
			return unit
		}
	}
	// Fallback for progress: the first available candidate overall.
	for _, c := range cands {
		if available(c) {
			return []Candidate{c}
		}
	}
	return nil
}

// nodeUnit returns the unbuilt candidates relevant to one plan node that can
// cover a missing selectivity variable: single-column candidates first
// (cheapest to build), then the multi-column role statistic.
func nodeUnit(n *optimizer.Node, byTable map[string][]Candidate, available func(Candidate) bool, missing map[int]bool) []Candidate {
	switch n.Op {
	case optimizer.OpTableScan, optimizer.OpIndexSeek:
		cols := map[string]bool{}
		for _, f := range n.Filters {
			if missing[f.VarID] {
				cols[f.Col.Column] = true
			}
		}
		return roleUnit(n.Table, cols, byTable, available)

	case optimizer.OpHashJoin, optimizer.OpMergeJoin, optimizer.OpNestedLoopJoin, optimizer.OpIndexNLJoin:
		// Dependent pairs across the join (§4.2: "An example of such
		// dependence is statistics on columns of a join predicate. In such
		// situations, we need to create a pair of statistics").
		for _, j := range n.Joins {
			if !missing[j.VarID] {
				continue
			}
			var unit []Candidate
			for _, side := range []query.ColumnRef{j.Left, j.Right} {
				c := Candidate{Table: side.Table, Columns: []string{side.Column}}
				if candidateExists(c, byTable) && available(c) {
					unit = append(unit, c)
				}
			}
			if len(unit) > 0 {
				return unit
			}
		}
		// Multi-column join statistics (role (c)): the pair covering all
		// join columns of this node per side.
		sideCols := map[string]map[string]bool{}
		for _, j := range n.Joins {
			if !missing[j.VarID] {
				continue
			}
			for _, side := range []query.ColumnRef{j.Left, j.Right} {
				if sideCols[side.Table] == nil {
					sideCols[side.Table] = map[string]bool{}
				}
				sideCols[side.Table][side.Column] = true
			}
		}
		var tables []string
		for t := range sideCols {
			tables = append(tables, t)
		}
		sort.Strings(tables)
		var unit []Candidate
		for _, t := range tables {
			for _, c := range byTable[t] {
				if len(c.Columns) >= 2 && colsSubset(c.Columns, sideCols[t]) && available(c) {
					unit = append(unit, c)
					break
				}
			}
		}
		return unit

	case optimizer.OpHashAggregate, optimizer.OpStreamAggregate:
		// GroupBy columns matter only while the clause's distinct-fraction
		// variable is missing; plan nodes do not carry the var ID, so the
		// caller encodes it as groupVarKey.
		if !missing[groupVarKey] {
			return nil
		}
		byT := map[string]map[string]bool{}
		for _, g := range n.GroupBy {
			if byT[g.Table] == nil {
				byT[g.Table] = map[string]bool{}
			}
			byT[g.Table][g.Column] = true
		}
		var tables []string
		for t := range byT {
			tables = append(tables, t)
		}
		sort.Strings(tables)
		for _, t := range tables {
			if unit := roleUnit(t, byT[t], byTable, available); len(unit) > 0 {
				return unit
			}
		}
		return nil

	default:
		return nil
	}
}

// roleUnit finds the first available candidate on the table whose columns
// all belong to the given column set, preferring single-column candidates.
func roleUnit(table string, cols map[string]bool, byTable map[string][]Candidate, available func(Candidate) bool) []Candidate {
	var multi *Candidate
	for i, c := range byTable[table] {
		if !colsSubset(c.Columns, cols) || !available(c) {
			continue
		}
		if len(c.Columns) == 1 {
			return []Candidate{c}
		}
		if multi == nil {
			multi = &byTable[table][i]
		}
	}
	if multi != nil {
		return []Candidate{*multi}
	}
	return nil
}

// groupVarKey is the sentinel under which the GROUP BY clause's missing
// distinct-fraction variable is recorded (plan nodes do not carry var IDs).
const groupVarKey = -2

func colsSubset(cols []string, set map[string]bool) bool {
	for _, c := range cols {
		if !set[c] {
			return false
		}
	}
	return true
}

func candidateExists(c Candidate, byTable map[string][]Candidate) bool {
	id := c.ID()
	for _, cand := range byTable[c.Table] {
		if cand.ID() == id {
			return true
		}
	}
	return false
}
