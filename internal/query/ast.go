// Package query defines the statement AST shared by the SQL parser, the
// optimizer, the executor, the workload generator and the statistics
// selection algorithms.
//
// The language is the normalized Select-Project-Join subset the paper works
// with (§4.1, footnote 3): conjunctive predicates, equi-joins, GROUP BY,
// ORDER BY, plus INSERT/UPDATE/DELETE statements for update workloads. NOT
// and disjunction are not representable, matching the paper's normalization
// assumption.
package query

import (
	"fmt"
	"strings"

	"autostats/internal/catalog"
)

// ColumnRef names a column of a table. Table is the resolved physical table
// name (aliases are resolved by the parser). Both names are the catalog's
// canonical lower-case names, so references compare with ==.
type ColumnRef struct {
	Table  string
	Column string
}

// Key returns the "table.column" form used as map keys.
func (c ColumnRef) Key() string {
	return c.Table + "." + c.Column
}

func (c ColumnRef) String() string { return c.Table + "." + c.Column }

// CmpOp is a comparison operator in a selection predicate.
type CmpOp int

// Comparison operators. NOT is excluded by normalization; != (Ne) is allowed
// and treated as a residual predicate by the optimizer.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String renders the SQL operator.
func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return "?"
	}
}

// Eval applies the comparison to two datums with SQL NULL semantics
// (NULL never satisfies a predicate). Comparing incompatible types — e.g. a
// string literal against an integer column — returns an error rather than a
// silent verdict so the executor can fail the query.
func (op CmpOp) Eval(a, b catalog.Datum) (bool, error) {
	if a.Null || b.Null {
		return false, nil
	}
	c, err := a.TryCompare(b)
	if err != nil {
		return false, err
	}
	switch op {
	case Eq:
		return c == 0, nil
	case Ne:
		return c != 0, nil
	case Lt:
		return c < 0, nil
	case Le:
		return c <= 0, nil
	case Gt:
		return c > 0, nil
	case Ge:
		return c >= 0, nil
	default:
		return false, fmt.Errorf("query: unknown comparison operator %d", int(op))
	}
}

// Filter is a single-table selection predicate: column op literal.
// VarID is the predicate's selectivity-variable identity within its query
// (§4.1: "the dependence of the optimizer on statistics can be conceptually
// characterized by a set of selectivity variables, one per predicate").
type Filter struct {
	VarID int
	Col   ColumnRef
	Op    CmpOp
	Val   catalog.Datum
}

func (f Filter) String() string {
	return fmt.Sprintf("%s %s %s", f.Col, f.Op, f.Val)
}

// JoinPred is an equi-join predicate Left = Right between two tables.
type JoinPred struct {
	VarID int
	Left  ColumnRef
	Right ColumnRef
}

func (j JoinPred) String() string {
	return fmt.Sprintf("%s = %s", j.Left, j.Right)
}

// Statement is any SQL statement.
type Statement interface {
	// SQL renders the statement back to parseable SQL text.
	SQL() string
	// IsQuery reports whether the statement is a SELECT.
	IsQuery() bool
}

// Select is a normalized SPJ query with optional grouping and aggregation.
type Select struct {
	// Projection lists the output columns; nil means SELECT * unless
	// Aggregates are present.
	Projection []ColumnRef
	// Aggregates lists aggregate expressions in the SELECT list. With no
	// GROUP BY they form a scalar aggregate (one output row). Per §3.1,
	// aggregate arguments are NOT statistics-relevant columns; only WHERE
	// and GROUP BY columns are.
	Aggregates []Aggregate
	// Distinct marks SELECT DISTINCT; per §4.1 it is handled like GROUP BY
	// over the projection columns.
	Distinct bool
	// Tables are the physical table names in FROM order.
	Tables []string
	// Filters are the conjunctive single-table predicates.
	Filters []Filter
	// Joins are the conjunctive equi-join predicates.
	Joins []JoinPred
	// GroupBy lists grouping columns (empty if none).
	GroupBy []ColumnRef
	// Having lists HAVING-clause predicates over aggregate results.
	Having []HavingPred
	// OrderBy lists ordering columns. Per the paper's footnote 1, ORDER BY
	// columns are parsed but are NOT statistics-relevant.
	OrderBy []ColumnRef

	// GroupVarID is the selectivity variable of the GROUP BY / DISTINCT
	// clause (the distinct-fraction variable of §4.1), or -1 when absent.
	GroupVarID int
}

// IsQuery reports true.
func (s *Select) IsQuery() bool { return true }

// Normalize assigns dense selectivity-variable IDs: filters first, then
// joins, then the group-by clause. It must be called after construction or
// mutation and before optimization.
func (s *Select) Normalize() {
	id := 0
	for i := range s.Filters {
		s.Filters[i].VarID = id
		id++
	}
	for i := range s.Joins {
		s.Joins[i].VarID = id
		id++
	}
	if len(s.GroupBy) > 0 || (s.Distinct && len(s.Projection) > 0) {
		s.GroupVarID = id
	} else {
		s.GroupVarID = -1
	}
}

// GroupingColumns returns the effective grouping columns: GROUP BY columns,
// or the projection for SELECT DISTINCT.
func (s *Select) GroupingColumns() []ColumnRef {
	if len(s.GroupBy) > 0 {
		return s.GroupBy
	}
	if s.Distinct {
		return s.Projection
	}
	return nil
}

// FiltersOn returns the filters that apply to the named table.
func (s *Select) FiltersOn(table string) []Filter {
	var out []Filter
	for _, f := range s.Filters {
		if f.Col.Table == table {
			out = append(out, f)
		}
	}
	return out
}

// SQL renders the query.
func (s *Select) SQL() string { return s.render(false) }

// Template renders the statement's parameterized canonical form: exactly the
// SQL() print with every comparison constant (WHERE filter and HAVING
// literals) replaced by '?'. Two statements share a template iff they differ
// only in those lifted constants, which is what the plan cache keys on.
func (s *Select) Template() string { return s.render(true) }

func (s *Select) render(paramize bool) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	switch {
	case len(s.Projection) == 0 && len(s.Aggregates) == 0:
		b.WriteString("*")
	default:
		writeCols(&b, s.Projection)
		for i, a := range s.Aggregates {
			if i > 0 || len(s.Projection) > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.SQL())
		}
	}
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(s.Tables, ", "))
	conds := make([]string, 0, len(s.Filters)+len(s.Joins))
	for _, f := range s.Filters {
		if paramize {
			conds = append(conds, fmt.Sprintf("%s %s ?", f.Col, f.Op))
		} else {
			conds = append(conds, f.String())
		}
	}
	for _, j := range s.Joins {
		conds = append(conds, j.String())
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		writeCols(&b, s.GroupBy)
	}
	if len(s.Having) > 0 {
		b.WriteString(" HAVING ")
		parts := make([]string, len(s.Having))
		for i, h := range s.Having {
			if paramize {
				parts[i] = fmt.Sprintf("%s %s ?", h.Agg.SQL(), h.Op)
			} else {
				parts[i] = h.SQL()
			}
		}
		b.WriteString(strings.Join(parts, " AND "))
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		writeCols(&b, s.OrderBy)
	}
	return b.String()
}

func writeCols(b *strings.Builder, cols []ColumnRef) {
	for i, c := range cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.String())
	}
}

// Insert is INSERT INTO table VALUES (...). Values must match the table's
// column order.
type Insert struct {
	Table  string
	Values []catalog.Datum
}

// IsQuery reports false.
func (s *Insert) IsQuery() bool { return false }

// SQL renders the statement.
func (s *Insert) SQL() string {
	vals := make([]string, len(s.Values))
	for i, v := range s.Values {
		vals[i] = v.String()
	}
	return fmt.Sprintf("INSERT INTO %s VALUES (%s)", s.Table, strings.Join(vals, ", "))
}

// Delete is DELETE FROM table WHERE conjuncts.
type Delete struct {
	Table   string
	Filters []Filter
}

// IsQuery reports false.
func (s *Delete) IsQuery() bool { return false }

// SQL renders the statement.
func (s *Delete) SQL() string {
	sql := "DELETE FROM " + s.Table
	if len(s.Filters) > 0 {
		sql += " WHERE " + joinFilters(s.Filters)
	}
	return sql
}

// Update is UPDATE table SET col = val WHERE conjuncts.
type Update struct {
	Table   string
	SetCol  string
	SetVal  catalog.Datum
	Filters []Filter
}

// IsQuery reports false.
func (s *Update) IsQuery() bool { return false }

// SQL renders the statement.
func (s *Update) SQL() string {
	sql := fmt.Sprintf("UPDATE %s SET %s = %s", s.Table, s.SetCol, s.SetVal)
	if len(s.Filters) > 0 {
		sql += " WHERE " + joinFilters(s.Filters)
	}
	return sql
}

func joinFilters(fs []Filter) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return strings.Join(parts, " AND ")
}
