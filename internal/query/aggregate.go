package query

import (
	"fmt"
	"strings"

	"autostats/internal/catalog"
)

// AggFunc is an aggregate function in a SELECT list.
type AggFunc int

// Aggregate functions. CountStar is COUNT(*); the others take a column.
const (
	CountStar AggFunc = iota
	Count
	Sum
	Avg
	Min
	Max
)

// String renders the SQL function name.
func (f AggFunc) String() string {
	switch f {
	case CountStar, Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// Aggregate is one aggregate expression, e.g. SUM(l_quantity).
type Aggregate struct {
	Func AggFunc
	// Col is the aggregated column (ignored for CountStar).
	Col ColumnRef
}

// SQL renders the aggregate expression.
func (a Aggregate) SQL() string {
	if a.Func == CountStar {
		return "COUNT(*)"
	}
	return fmt.Sprintf("%s(%s)", a.Func, a.Col)
}

// Key returns the canonical output-column key of the aggregate, used by the
// executor's result column map (e.g. "count(*)", "sum(lineitem.l_quantity)").
func (a Aggregate) Key() string {
	if a.Func == CountStar {
		return "count(*)"
	}
	return strings.ToLower(a.Func.String()) + "(" + a.Col.Key() + ")"
}

// HavingPred is a HAVING-clause predicate: aggregate op literal. HAVING
// predicates filter aggregate OUTPUT rows; they carry no selectivity
// variable because no statistics can exist on aggregate results — the
// optimizer prices them with a fixed heuristic, which is consistent with
// the paper's framework (only WHERE and GROUP BY columns are
// statistics-relevant).
type HavingPred struct {
	Agg Aggregate
	Op  CmpOp
	Val catalog.Datum
}

// SQL renders the predicate.
func (h HavingPred) SQL() string {
	return fmt.Sprintf("%s %s %s", h.Agg.SQL(), h.Op, h.Val)
}
