package optimizer

import (
	"autostats/internal/catalog"
	"autostats/internal/query"
)

// sameConstants reports whether two template-equal statements carry the same
// lifted constants (filter and HAVING literals). When they do, the cached
// plan can be served unchanged — in particular, repeated optimization of the
// same *Select returns the identical *Plan pointer.
func sameConstants(a, b *query.Select) bool {
	if a == b {
		return true
	}
	if len(a.Filters) != len(b.Filters) || len(a.Having) != len(b.Having) {
		return false
	}
	for i := range a.Filters {
		if a.Filters[i].Val != b.Filters[i].Val {
			return false
		}
	}
	for i := range a.Having {
		if a.Having[i].Val != b.Having[i].Val {
			return false
		}
	}
	return true
}

// rebindPlan clones a cached plan for a template-equal query with different
// constants. The plan shape, cardinality estimates and costs carry over —
// the cache key's bucket vector guarantees the new constants sit in the same
// selectivity regime the plan was costed under — but every literal embedded
// in the tree (scan/seek Filters, SeekFilters, HAVING predicates) is
// substituted with q's, so execution evaluates exactly the new statement.
// Filters substitute by selectivity-variable identity; template equality
// guarantees the VarID assignment (dense, in filter order) corresponds.
func rebindPlan(cached *Plan, q *query.Select) *Plan {
	byVar := make(map[int]catalog.Datum, len(q.Filters))
	for _, f := range q.Filters {
		byVar[f.VarID] = f.Val
	}
	return &Plan{
		Root:        rebindNode(cached.Root, byVar, q),
		Query:       q,
		UsedStats:   cached.UsedStats,
		MissingVars: cached.MissingVars,
	}
}

func rebindNode(n *Node, byVar map[int]catalog.Datum, q *query.Select) *Node {
	m := *n
	if len(n.Children) > 0 {
		m.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			m.Children[i] = rebindNode(ch, byVar, q)
		}
	}
	if len(n.Filters) > 0 {
		m.Filters = rebindFilters(n.Filters, byVar)
	}
	if len(n.SeekFilters) > 0 {
		m.SeekFilters = rebindFilters(n.SeekFilters, byVar)
	}
	// HAVING predicates carry no selectivity variable; template equality
	// guarantees q.Having matches the node's slice position-for-position.
	if len(n.Having) > 0 && len(q.Having) == len(n.Having) {
		m.Having = q.Having
	}
	return &m
}

func rebindFilters(fs []query.Filter, byVar map[int]catalog.Datum) []query.Filter {
	out := make([]query.Filter, len(fs))
	copy(out, fs)
	for i := range out {
		if v, ok := byVar[out[i].VarID]; ok {
			out[i].Val = v
		}
	}
	return out
}
