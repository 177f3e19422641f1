package optimizer

import (
	"fmt"
	"math"
	"strings"

	"autostats/internal/query"
	"autostats/internal/stats"
)

// Op is a physical operator kind.
type Op int

// Physical operators. Filters are folded into the scan/seek nodes that
// evaluate them; sorts required by merge join and ORDER BY are explicit.
const (
	OpTableScan Op = iota
	OpIndexSeek
	OpHashJoin
	OpMergeJoin
	OpNestedLoopJoin
	OpIndexNLJoin
	OpHashAggregate
	OpStreamAggregate
	OpSort
)

// String names the operator.
func (op Op) String() string {
	switch op {
	case OpTableScan:
		return "TableScan"
	case OpIndexSeek:
		return "IndexSeek"
	case OpHashJoin:
		return "HashJoin"
	case OpMergeJoin:
		return "MergeJoin"
	case OpNestedLoopJoin:
		return "NLJoin"
	case OpIndexNLJoin:
		return "IndexNLJoin"
	case OpHashAggregate:
		return "HashAgg"
	case OpStreamAggregate:
		return "StreamAgg"
	case OpSort:
		return "Sort"
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// Cost model constants, shared with the executor so estimated and actual
// work are in the same currency.
const (
	// CostRowScan is charged per row read by a sequential scan.
	CostRowScan = 1.0
	// CostRowFetch is charged per row fetched through an index (random
	// access penalty). Index access beats a scan only below ~1/CostRowFetch
	// selectivity — the access-path decision statistics influence.
	CostRowFetch = 4.0
	// CostHashBuild is charged per row inserted in a hash table.
	CostHashBuild = 2.0
	// CostHashProbe is charged per probing row.
	CostHashProbe = 1.0
	// CostRowOut is charged per row emitted by a join or aggregate.
	CostRowOut = 0.5
	// costSortFactor scales n·log2(n) for sorting.
	costSortFactor = 0.5
	// costGroupInsert is charged per input row of a hash aggregate.
	costGroupInsert = 1.5
	// costGroupSpill is charged per GROUP of a hash aggregate, modeling the
	// memory/spill pressure of wide hash tables. It makes the hash-vs-sort
	// aggregation choice depend on the estimated group count — i.e. on the
	// GROUP BY distinct-fraction selectivity variable of §4.1.
	costGroupSpill = 8.0
	// CostStreamRow is charged per input row of a sort-based (stream)
	// aggregate, on top of the input sort.
	CostStreamRow = 1.0
)

// HashAggCost estimates hash aggregation of in rows into groups.
func HashAggCost(in, groups float64) float64 {
	return costGroupInsert*in + costGroupSpill*groups + CostRowOut*groups
}

// StreamAggCost estimates sort-based aggregation of in rows into groups.
func StreamAggCost(in, groups float64) float64 {
	return SortCost(in) + CostStreamRow*in + CostRowOut*groups
}

// SortCost returns the cost of sorting n rows.
func SortCost(n float64) float64 {
	if n < 1 {
		n = 1
	}
	return costSortFactor * n * math.Log2(n+2)
}

// SeekCost returns the B-tree traversal cost on a table of n rows.
func SeekCost(n float64) float64 { return math.Log2(n+2) + 1 }

// Node is one physical plan operator.
type Node struct {
	Op       Op
	Children []*Node

	// Table and Index describe scans/seeks; Index also names the inner
	// index of an IndexNLJoin.
	Table string
	Index string
	// IndexCol is the column the seek ranges over.
	IndexCol string
	// Filters are the predicates evaluated at this node (scan/seek nodes).
	Filters []query.Filter
	// SeekFilters are the subset of Filters satisfied by the index range
	// itself (the rest are residual).
	SeekFilters []query.Filter
	// Joins are the equi-join predicates applied at a join node.
	Joins []query.JoinPred
	// GroupBy lists grouping columns of an aggregate node.
	GroupBy []query.ColumnRef
	// Aggregates lists aggregate expressions computed at an aggregate node
	// (empty GroupBy with non-empty Aggregates is a scalar aggregate).
	Aggregates []query.Aggregate
	// Having lists HAVING predicates filtering the aggregate output.
	Having []query.HavingPred
	// SortBy lists ordering columns of a Sort.
	SortBy []query.ColumnRef

	// EstRows is the optimizer's cardinality estimate for this node's
	// output.
	EstRows float64
	// Cost is the cumulative estimated cost of the subtree.
	Cost float64
}

// LocalCost returns this node's own cost: subtree cost minus children
// subtree costs. This drives FindNextStatToBuild's most-expensive-operator
// heuristic (§4.2).
func (n *Node) LocalCost() float64 {
	c := n.Cost
	for _, ch := range n.Children {
		c -= ch.Cost
	}
	return c
}

// Plan is an optimized query plan.
type Plan struct {
	Root *Node
	// Query is the optimized statement.
	Query *query.Select
	// UsedStats lists the statistics the estimator consulted.
	UsedStats []stats.ID
	// MissingVars lists the selectivity variables that fell back to magic
	// numbers (or overrides) because no applicable statistic was visible.
	MissingVars []int
}

// Cost returns the estimated cost of the whole plan.
func (p *Plan) Cost() float64 { return p.Root.Cost }

// Signature renders the execution tree as a canonical string; two plans are
// execution-tree equivalent (§3.2) iff their signatures are equal. The
// signature covers operator kinds, tables, indexes, join predicates and
// filter predicates — everything that determines the execution strategy —
// but not cardinality or cost estimates.
func (p *Plan) Signature() string {
	var b strings.Builder
	writeSignature(&b, p.Root)
	return b.String()
}

func writeSignature(b *strings.Builder, n *Node) {
	b.WriteString(n.Op.String())
	b.WriteByte('(')
	first := true
	sep := func() {
		if !first {
			b.WriteByte(',')
		}
		first = false
	}
	if n.Table != "" {
		sep()
		b.WriteString(n.Table)
	}
	if n.Index != "" {
		sep()
		b.WriteString("ix:" + n.Index)
	}
	for _, f := range n.Filters {
		sep()
		b.WriteString(f.String())
	}
	for _, j := range n.Joins {
		sep()
		b.WriteString(j.String())
	}
	for _, g := range n.GroupBy {
		sep()
		b.WriteString("g:" + g.String())
	}
	for _, a := range n.Aggregates {
		sep()
		b.WriteString("a:" + a.SQL())
	}
	for _, h := range n.Having {
		sep()
		b.WriteString("h:" + h.SQL())
	}
	for _, s := range n.SortBy {
		sep()
		b.WriteString("o:" + s.String())
	}
	for _, ch := range n.Children {
		sep()
		writeSignature(b, ch)
	}
	b.WriteByte(')')
}

// Format pretty-prints the plan tree with estimates, for tools and examples.
func (p *Plan) Format() string {
	var b strings.Builder
	formatNode(&b, p.Root, 0)
	return b.String()
}

func formatNode(b *strings.Builder, n *Node, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Op.String())
	if n.Table != "" {
		fmt.Fprintf(b, " %s", n.Table)
	}
	if n.Index != "" {
		fmt.Fprintf(b, " (index %s)", n.Index)
	}
	for _, j := range n.Joins {
		fmt.Fprintf(b, " [%s]", j)
	}
	for _, f := range n.Filters {
		fmt.Fprintf(b, " [%s]", f)
	}
	if len(n.GroupBy) > 0 {
		fmt.Fprintf(b, " group by %v", n.GroupBy)
	}
	fmt.Fprintf(b, "  rows=%.1f cost=%.1f\n", n.EstRows, n.Cost)
	for _, ch := range n.Children {
		formatNode(b, ch, depth+1)
	}
}
