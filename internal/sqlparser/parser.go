package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"autostats/internal/catalog"
	"autostats/internal/query"
)

// Parse parses one SQL statement, resolving table aliases and unqualified
// column names against the schema and coercing literals to column types.
// SELECT statements come back Normalize()d (selectivity variables assigned).
//
// Identifiers are case-insensitive: every identifier token (keyword, table,
// alias, qualifier, column) is lower-cased here, once, so the AST carries
// only the catalog's canonical names.
func Parse(schema *catalog.Schema, sql string) (query.Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	for i := range toks {
		if toks[i].kind == tokIdent {
			toks[i].text = strings.ToLower(toks[i].text)
		}
	}
	p := &parser{schema: schema, toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if !p.atKeyword("") && p.peek().kind != tokEOF {
		return nil, fmt.Errorf("sqlparser: trailing input at %d: %q", p.peek().pos, p.peek().text)
	}
	return stmt, nil
}

// ParseSelect parses a statement that must be a SELECT.
func ParseSelect(schema *catalog.Schema, sql string) (*query.Select, error) {
	stmt, err := Parse(schema, sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*query.Select)
	if !ok {
		return nil, fmt.Errorf("sqlparser: expected a SELECT statement, got %T", stmt)
	}
	return sel, nil
}

type parser struct {
	schema *catalog.Schema
	toks   []token
	pos    int

	// aliases maps alias -> physical table name for the current query.
	aliases map[string]string
	tables  []string
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && t.text == kw
}

func (p *parser) expectKeyword(kw string) error {
	if !p.atKeyword(kw) {
		return fmt.Errorf("sqlparser: expected %q at %d, got %q", kw, p.peek().pos, p.peek().text)
	}
	p.next()
	return nil
}

func (p *parser) expectPunct(s string) error {
	t := p.peek()
	if t.kind != tokPunct || t.text != s {
		return fmt.Errorf("sqlparser: expected %q at %d, got %q", s, t.pos, t.text)
	}
	p.next()
	return nil
}

func (p *parser) atPunct(s string) bool {
	t := p.peek()
	return t.kind == tokPunct && t.text == s
}

func (p *parser) parseStatement() (query.Statement, error) {
	switch {
	case p.atKeyword("select"):
		return p.parseSelect()
	case p.atKeyword("insert"):
		return p.parseInsert()
	case p.atKeyword("delete"):
		return p.parseDelete()
	case p.atKeyword("update"):
		return p.parseUpdate()
	default:
		return nil, fmt.Errorf("sqlparser: expected SELECT, INSERT, DELETE or UPDATE at %d, got %q", p.peek().pos, p.peek().text)
	}
}

func (p *parser) parseSelect() (*query.Select, error) {
	p.next() // SELECT
	s := &query.Select{GroupVarID: -1}
	if p.atKeyword("distinct") {
		p.next()
		s.Distinct = true
	}

	// Projection: defer column resolution until FROM is parsed. Items are
	// plain columns or aggregate expressions.
	star := false
	var items []projectionItem
	if p.atPunct("*") {
		p.next()
		star = true
	} else {
		for {
			item, err := p.parseProjectionItem()
			if err != nil {
				return nil, err
			}
			items = append(items, item)
			if !p.atPunct(",") {
				break
			}
			p.next()
		}
	}

	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	if err := p.parseFromList(); err != nil {
		return nil, err
	}
	s.Tables = p.tables

	if !star {
		for _, it := range items {
			if it.agg {
				agg, err := p.resolveAggregate(it)
				if err != nil {
					return nil, err
				}
				s.Aggregates = append(s.Aggregates, agg)
				continue
			}
			ref, err := p.resolveColumn(it.q, it.c)
			if err != nil {
				return nil, err
			}
			s.Projection = append(s.Projection, ref)
		}
	}

	if p.atKeyword("where") {
		p.next()
		if err := p.parseConjuncts(s); err != nil {
			return nil, err
		}
	}
	if p.atKeyword("group") {
		p.next()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		cols, err := p.parseColumnRefList()
		if err != nil {
			return nil, err
		}
		s.GroupBy = cols
	}
	if p.atKeyword("having") {
		p.next()
		for {
			h, err := p.parseHavingPred()
			if err != nil {
				return nil, err
			}
			s.Having = append(s.Having, h)
			if !p.atKeyword("and") {
				break
			}
			p.next()
		}
	}
	if p.atKeyword("order") {
		p.next()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		cols, err := p.parseColumnRefList()
		if err != nil {
			return nil, err
		}
		s.OrderBy = cols
	}
	s.Normalize()
	return s, nil
}

func (p *parser) parseFromList() error {
	p.aliases = make(map[string]string)
	p.tables = nil
	for {
		t := p.next()
		if t.kind != tokIdent {
			return fmt.Errorf("sqlparser: expected table name at %d, got %q", t.pos, t.text)
		}
		tbl, err := p.schema.Table(t.text)
		if err != nil {
			return err
		}
		p.tables = append(p.tables, tbl.Name)
		p.aliases[tbl.Name] = tbl.Name
		// Optional alias (a bare identifier that is not a clause keyword).
		if p.peek().kind == tokIdent && !p.isClauseKeyword(p.peek().text) {
			p.aliases[p.next().text] = tbl.Name
		}
		if !p.atPunct(",") {
			return nil
		}
		p.next()
	}
}

func (p *parser) isClauseKeyword(s string) bool {
	switch s {
	case "where", "group", "order", "and", "by", "set", "values", "having":
		return true
	}
	return false
}

// projectionItem is a pre-resolution SELECT-list entry.
type projectionItem struct {
	agg       bool
	fn        query.AggFunc
	countStar bool
	q, c      string
}

// parseProjectionItem reads one SELECT-list entry: a column reference or an
// aggregate expression FUNC(col) / COUNT(*).
func (p *parser) parseProjectionItem() (projectionItem, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return projectionItem{}, fmt.Errorf("sqlparser: expected column or aggregate at %d, got %q", t.pos, t.text)
	}
	// Lookahead: IDENT '(' means an aggregate function.
	if p.toks[p.pos+1].kind == tokPunct && p.toks[p.pos+1].text == "(" {
		p.next() // function name
		var fn query.AggFunc
		switch t.text {
		case "count":
			fn = query.Count
		case "sum":
			fn = query.Sum
		case "avg":
			fn = query.Avg
		case "min":
			fn = query.Min
		case "max":
			fn = query.Max
		default:
			return projectionItem{}, fmt.Errorf("sqlparser: unknown aggregate function %q at %d", t.text, t.pos)
		}
		p.next() // (
		if p.atPunct("*") {
			if fn != query.Count {
				return projectionItem{}, fmt.Errorf("sqlparser: %s(*) is not valid; only COUNT(*)", fn)
			}
			p.next()
			if err := p.expectPunct(")"); err != nil {
				return projectionItem{}, err
			}
			return projectionItem{agg: true, fn: query.CountStar, countStar: true}, nil
		}
		q, c, err := p.parseColumnName()
		if err != nil {
			return projectionItem{}, err
		}
		if err := p.expectPunct(")"); err != nil {
			return projectionItem{}, err
		}
		return projectionItem{agg: true, fn: fn, q: q, c: c}, nil
	}
	q, c, err := p.parseColumnName()
	if err != nil {
		return projectionItem{}, err
	}
	return projectionItem{q: q, c: c}, nil
}

// resolveAggregate resolves a parsed aggregate item against the FROM list
// and validates SUM/AVG operand types.
func (p *parser) resolveAggregate(it projectionItem) (query.Aggregate, error) {
	agg := query.Aggregate{Func: it.fn}
	if it.countStar {
		return agg, nil
	}
	ref, err := p.resolveColumn(it.q, it.c)
	if err != nil {
		return query.Aggregate{}, err
	}
	if it.fn == query.Sum || it.fn == query.Avg {
		typ, err := p.columnType(ref)
		if err != nil {
			return query.Aggregate{}, err
		}
		if typ == catalog.String {
			return query.Aggregate{}, fmt.Errorf("sqlparser: %s over string column %s", it.fn, ref)
		}
	}
	agg.Col = ref
	return agg, nil
}

// parseHavingPred parses one HAVING conjunct: aggregate op literal.
func (p *parser) parseHavingPred() (query.HavingPred, error) {
	item, err := p.parseProjectionItem()
	if err != nil {
		return query.HavingPred{}, err
	}
	if !item.agg {
		return query.HavingPred{}, fmt.Errorf("sqlparser: HAVING requires an aggregate expression, got column %s", item.c)
	}
	agg, err := p.resolveAggregate(item)
	if err != nil {
		return query.HavingPred{}, err
	}
	opTok := p.next()
	if opTok.kind != tokPunct {
		return query.HavingPred{}, fmt.Errorf("sqlparser: expected comparison operator in HAVING at %d, got %q", opTok.pos, opTok.text)
	}
	var op query.CmpOp
	switch opTok.text {
	case "=":
		op = query.Eq
	case "<>":
		op = query.Ne
	case "<":
		op = query.Lt
	case "<=":
		op = query.Le
	case ">":
		op = query.Gt
	case ">=":
		op = query.Ge
	default:
		return query.HavingPred{}, fmt.Errorf("sqlparser: unknown operator %q in HAVING", opTok.text)
	}
	// Aggregate results are numeric; parse the literal as float (or int for
	// counts) — datum comparison handles Int/Float cross-type.
	want := catalog.Float
	if agg.Func == query.CountStar || agg.Func == query.Count {
		want = catalog.Int
	}
	val, err := p.parseLiteral(want)
	if err != nil {
		return query.HavingPred{}, err
	}
	return query.HavingPred{Agg: agg, Op: op, Val: val}, nil
}

// parseColumnName reads [qualifier.]column without resolving it.
func (p *parser) parseColumnName() (qualifier, column string, err error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", "", fmt.Errorf("sqlparser: expected column name at %d, got %q", t.pos, t.text)
	}
	if p.atPunct(".") {
		p.next()
		c := p.next()
		if c.kind != tokIdent {
			return "", "", fmt.Errorf("sqlparser: expected column after '.' at %d, got %q", c.pos, c.text)
		}
		return t.text, c.text, nil
	}
	return "", t.text, nil
}

// resolveColumn maps (qualifier, column) to a physical ColumnRef using the
// FROM list; unqualified names must be unambiguous across the FROM tables.
func (p *parser) resolveColumn(qualifier, column string) (query.ColumnRef, error) {
	if qualifier != "" {
		physical, ok := p.aliases[qualifier]
		if !ok {
			return query.ColumnRef{}, fmt.Errorf("sqlparser: unknown table or alias %q", qualifier)
		}
		tbl, err := p.schema.Table(physical)
		if err != nil {
			return query.ColumnRef{}, err
		}
		if tbl.ColumnIndex(column) < 0 {
			return query.ColumnRef{}, fmt.Errorf("sqlparser: table %s has no column %s", physical, column)
		}
		return query.ColumnRef{Table: physical, Column: column}, nil
	}
	var found []string
	for _, t := range p.tables {
		tbl, err := p.schema.Table(t)
		if err != nil {
			return query.ColumnRef{}, err
		}
		if tbl.ColumnIndex(column) >= 0 {
			found = append(found, t)
		}
	}
	switch len(found) {
	case 1:
		return query.ColumnRef{Table: found[0], Column: column}, nil
	case 0:
		return query.ColumnRef{}, fmt.Errorf("sqlparser: column %s not found in FROM tables", column)
	default:
		return query.ColumnRef{}, fmt.Errorf("sqlparser: column %s is ambiguous (tables %v)", column, found)
	}
}

func (p *parser) parseColumnRefList() ([]query.ColumnRef, error) {
	var out []query.ColumnRef
	for {
		q, c, err := p.parseColumnName()
		if err != nil {
			return nil, err
		}
		ref, err := p.resolveColumn(q, c)
		if err != nil {
			return nil, err
		}
		out = append(out, ref)
		if !p.atPunct(",") {
			return out, nil
		}
		p.next()
	}
}

// parseConjuncts parses cond (AND cond)* into s.Filters / s.Joins. BETWEEN
// desugars to >= AND <=. Redundant parentheses around conjunct groups are
// accepted and flattened — `(a = 1 AND b = 2) AND c = 3` parses identically
// to the unparenthesized form, so the canonical print (and therefore the
// plan-cache key) is stable across trivially-different spellings. Only
// conjunctions occur inside groups (the grammar has no OR/NOT), so
// flattening never changes semantics.
func (p *parser) parseConjuncts(s *query.Select) error {
	for {
		if p.atPunct("(") {
			p.next()
			if err := p.parseConjuncts(s); err != nil {
				return err
			}
			if err := p.expectPunct(")"); err != nil {
				return err
			}
		} else if err := p.parseCondition(s); err != nil {
			return err
		}
		if !p.atKeyword("and") {
			return nil
		}
		p.next()
	}
}

func (p *parser) parseCondition(s *query.Select) error {
	q, c, err := p.parseColumnName()
	if err != nil {
		return err
	}
	left, err := p.resolveColumn(q, c)
	if err != nil {
		return err
	}
	colType, err := p.columnType(left)
	if err != nil {
		return err
	}

	if p.atKeyword("between") {
		p.next()
		lo, err := p.parseLiteral(colType)
		if err != nil {
			return err
		}
		if err := p.expectKeyword("and"); err != nil {
			return err
		}
		hi, err := p.parseLiteral(colType)
		if err != nil {
			return err
		}
		s.Filters = append(s.Filters,
			query.Filter{Col: left, Op: query.Ge, Val: lo},
			query.Filter{Col: left, Op: query.Le, Val: hi})
		return nil
	}

	opTok := p.next()
	if opTok.kind != tokPunct {
		return fmt.Errorf("sqlparser: expected comparison operator at %d, got %q", opTok.pos, opTok.text)
	}
	var op query.CmpOp
	switch opTok.text {
	case "=":
		op = query.Eq
	case "<>":
		op = query.Ne
	case "<":
		op = query.Lt
	case "<=":
		op = query.Le
	case ">":
		op = query.Gt
	case ">=":
		op = query.Ge
	default:
		return fmt.Errorf("sqlparser: unknown operator %q at %d", opTok.text, opTok.pos)
	}

	// Column-to-column with '=' is a join predicate; otherwise a literal RHS.
	if p.peek().kind == tokIdent && !p.atKeyword("date") && !p.atKeyword("null") {
		q2, c2, err := p.parseColumnName()
		if err != nil {
			return err
		}
		right, err := p.resolveColumn(q2, c2)
		if err != nil {
			return err
		}
		if op != query.Eq {
			return fmt.Errorf("sqlparser: only equi-join column comparisons are supported, got %s", op)
		}
		if left.Table == right.Table {
			return fmt.Errorf("sqlparser: same-table column comparison %s = %s is not supported", left, right)
		}
		s.Joins = append(s.Joins, query.JoinPred{Left: left, Right: right})
		return nil
	}

	val, err := p.parseLiteral(colType)
	if err != nil {
		return err
	}
	s.Filters = append(s.Filters, query.Filter{Col: left, Op: op, Val: val})
	return nil
}

func (p *parser) columnType(ref query.ColumnRef) (catalog.Type, error) {
	tbl, err := p.schema.Table(ref.Table)
	if err != nil {
		return 0, err
	}
	col, err := tbl.Column(ref.Column)
	if err != nil {
		return 0, err
	}
	return col.Type, nil
}

// parseLiteral reads a literal and coerces it to the column type. A literal
// whose type cannot compare with the column type (e.g. a quoted string
// against an INT column) is rejected here so the mismatch surfaces as a
// parse error instead of failing row-by-row at execution time.
func (p *parser) parseLiteral(want catalog.Type) (catalog.Datum, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.next()
		if want == catalog.String {
			return catalog.Datum{}, fmt.Errorf("sqlparser: numeric literal %q cannot compare with a VARCHAR column at %d", t.text, t.pos)
		}
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return catalog.Datum{}, fmt.Errorf("sqlparser: bad number %q at %d", t.text, t.pos)
			}
			if want == catalog.Int || want == catalog.Date {
				return catalog.Datum{T: want, I: int64(f)}, nil
			}
			return catalog.NewFloat(f), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return catalog.Datum{}, fmt.Errorf("sqlparser: bad number %q at %d", t.text, t.pos)
		}
		switch want {
		case catalog.Float:
			return catalog.NewFloat(float64(i)), nil
		case catalog.Date:
			return catalog.NewDate(i), nil
		default:
			return catalog.NewInt(i), nil
		}
	case t.kind == tokString:
		p.next()
		if want != catalog.String {
			return catalog.Datum{}, fmt.Errorf("sqlparser: string literal %q cannot compare with a %s column at %d", t.text, want, t.pos)
		}
		return catalog.NewString(t.text), nil
	case t.kind == tokIdent && t.text == "date":
		if want != catalog.Date {
			return catalog.Datum{}, fmt.Errorf("sqlparser: DATE literal cannot compare with a %s column at %d", want, t.pos)
		}
		p.next()
		n := p.next()
		if n.kind != tokNumber {
			return catalog.Datum{}, fmt.Errorf("sqlparser: expected day number after DATE at %d", n.pos)
		}
		i, err := strconv.ParseInt(n.text, 10, 64)
		if err != nil {
			return catalog.Datum{}, fmt.Errorf("sqlparser: bad date %q at %d", n.text, n.pos)
		}
		return catalog.NewDate(i), nil
	case t.kind == tokIdent && t.text == "null":
		p.next()
		return catalog.NewNull(want), nil
	default:
		return catalog.Datum{}, fmt.Errorf("sqlparser: expected literal at %d, got %q", t.pos, t.text)
	}
}

func (p *parser) parseInsert() (query.Statement, error) {
	p.next() // INSERT
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("sqlparser: expected table name at %d", t.pos)
	}
	tbl, err := p.schema.Table(t.text)
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("values"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var vals []catalog.Datum
	for i := 0; ; i++ {
		if i >= len(tbl.Columns) {
			return nil, fmt.Errorf("sqlparser: too many values for table %s", tbl.Name)
		}
		v, err := p.parseLiteral(tbl.Columns[i].Type)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
		if p.atPunct(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if len(vals) != len(tbl.Columns) {
		return nil, fmt.Errorf("sqlparser: INSERT into %s has %d values, want %d", tbl.Name, len(vals), len(tbl.Columns))
	}
	return &query.Insert{Table: tbl.Name, Values: vals}, nil
}

// parseWhereFilters parses a WHERE clause of literal-only conjuncts for DML.
func (p *parser) parseWhereFilters(table string) ([]query.Filter, error) {
	p.aliases = map[string]string{table: table}
	p.tables = []string{table}
	s := &query.Select{}
	if err := p.parseConjuncts(s); err != nil {
		return nil, err
	}
	if len(s.Joins) > 0 {
		return nil, fmt.Errorf("sqlparser: join predicates are not allowed in DML WHERE clauses")
	}
	return s.Filters, nil
}

func (p *parser) parseDelete() (query.Statement, error) {
	p.next() // DELETE
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("sqlparser: expected table name at %d", t.pos)
	}
	tbl, err := p.schema.Table(t.text)
	if err != nil {
		return nil, err
	}
	d := &query.Delete{Table: tbl.Name}
	if p.atKeyword("where") {
		p.next()
		d.Filters, err = p.parseWhereFilters(d.Table)
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (p *parser) parseUpdate() (query.Statement, error) {
	p.next() // UPDATE
	t := p.next()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("sqlparser: expected table name at %d", t.pos)
	}
	tbl, err := p.schema.Table(t.text)
	if err != nil {
		return nil, err
	}
	u := &query.Update{Table: tbl.Name}
	if err := p.expectKeyword("set"); err != nil {
		return nil, err
	}
	c := p.next()
	if c.kind != tokIdent {
		return nil, fmt.Errorf("sqlparser: expected column name at %d", c.pos)
	}
	col, err := tbl.Column(c.text)
	if err != nil {
		return nil, err
	}
	u.SetCol = col.Name
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	u.SetVal, err = p.parseLiteral(col.Type)
	if err != nil {
		return nil, err
	}
	if p.atKeyword("where") {
		p.next()
		u.Filters, err = p.parseWhereFilters(u.Table)
		if err != nil {
			return nil, err
		}
	}
	return u, nil
}
