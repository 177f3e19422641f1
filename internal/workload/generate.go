package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"autostats/internal/catalog"
	"autostats/internal/query"
	"autostats/internal/storage"
)

// Complexity bounds the number of tables per generated query, matching the
// paper's §8.1 workload grid: Simple is at most 2 tables, Complex at most 8.
type Complexity int

const (
	// Simple queries touch at most 2 tables.
	Simple Complexity = iota
	// Complex queries touch up to 8 tables.
	Complex
)

// maxTables returns the table cap for the complexity level.
func (c Complexity) maxTables() int {
	if c == Complex {
		return 8
	}
	return 2
}

// letter returns the workload-name letter (S or C).
func (c Complexity) letter() string {
	if c == Complex {
		return "C"
	}
	return "S"
}

// Config parameterizes the Rags-like generator.
type Config struct {
	// Count is the total number of statements.
	Count int
	// UpdatePct is the percentage of insert/delete/update statements
	// (0, 25 or 50 in the paper's grid; any 0-100 value works).
	UpdatePct int
	// Complexity bounds tables per query.
	Complexity Complexity
	// GroupByPct is the chance (0-100) that a query gets a GROUP BY clause.
	GroupByPct int
	// OrderByPct is the chance (0-100) that a query gets an ORDER BY clause.
	OrderByPct int
	// Seed makes generation deterministic.
	Seed int64

	// The adversarial knobs below exist for the correctness harness
	// (internal/oracle) and default to off. They are gated so that a zero
	// value consumes no randomness: existing seeds keep producing exactly
	// the same workloads.

	// NePct is the chance (0-100) that a numeric filter uses <> instead of
	// the standard operator mix. The paper's magic number for <> is 0.90,
	// the opposite end of the selectivity range from equality's 0.10.
	NePct int
	// OutOfRangePct is the chance (0-100) that a numeric filter constant is
	// pushed far outside the column's live domain, exercising the
	// histograms' and executor's empty-range paths.
	OutOfRangePct int
	// HavingPct is the chance (0-100) that a grouped query gets a
	// HAVING COUNT(*) predicate.
	HavingPct int
}

// name renders the paper's workload naming scheme, e.g. "U25-S-1000".
func (c Config) name() string {
	return fmt.Sprintf("U%d-%s-%d", c.UpdatePct, c.Complexity.letter(), c.Count)
}

// ConfigByName parses names like "U25-S-1000" back into a Config.
func ConfigByName(name string, seed int64) (Config, error) {
	parts := strings.Split(name, "-")
	if len(parts) != 3 || !strings.HasPrefix(parts[0], "U") {
		return Config{}, fmt.Errorf("workload: bad workload name %q (want e.g. U25-S-1000)", name)
	}
	var cfg Config
	pct, err := strconv.Atoi(parts[0][1:])
	if err != nil || pct < 0 || pct > 100 {
		return Config{}, fmt.Errorf("workload: bad update pct in %q", name)
	}
	cfg.UpdatePct = pct
	switch parts[1] {
	case "S":
		cfg.Complexity = Simple
	case "C":
		cfg.Complexity = Complex
	default:
		return Config{}, fmt.Errorf("workload: bad complexity %q in %q", parts[1], name)
	}
	count, err := strconv.Atoi(parts[2])
	if err != nil || count <= 0 {
		return Config{}, fmt.Errorf("workload: bad count in %q", name)
	}
	cfg.Count = count
	cfg.GroupByPct = 30
	cfg.OrderByPct = 20
	cfg.Seed = seed
	return cfg, nil
}

// generator holds sampling state for one generation run.
type generator struct {
	rng    *rand.Rand
	schema *catalog.Schema
	db     *storage.Database
	cfg    Config

	tableNames []string
	// colValues caches live column values per column for sampling
	// predicate constants from the actual data distribution.
	colValues map[query.ColumnRef][]catalog.Datum
	// adjacency lists FK edges per table.
	adj map[string][]catalog.ForeignKey
}

// Generate produces a workload over the database using the paper's knobs.
// Predicate constants are sampled from the live data so generated predicates
// span the full selectivity range under any skew.
func Generate(db *storage.Database, cfg Config) (*Workload, error) {
	if cfg.Count <= 0 {
		return nil, fmt.Errorf("workload: Count must be positive")
	}
	if cfg.GroupByPct == 0 {
		cfg.GroupByPct = 30
	}
	if cfg.OrderByPct == 0 {
		cfg.OrderByPct = 20
	}
	g := &generator{
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		schema:    db.Schema,
		db:        db,
		cfg:       cfg,
		colValues: make(map[query.ColumnRef][]catalog.Datum),
		adj:       make(map[string][]catalog.ForeignKey),
	}
	g.tableNames = db.Schema.TableNames()
	for _, fk := range db.Schema.ForeignKeys {
		g.adj[fk.Table] = append(g.adj[fk.Table], fk)
		g.adj[fk.RefTable] = append(g.adj[fk.RefTable], fk)
	}

	w := &Workload{Name: cfg.name()}
	for i := 0; i < cfg.Count; i++ {
		var stmt query.Statement
		var err error
		if g.rng.Intn(100) < cfg.UpdatePct {
			stmt, err = g.genDML()
		} else {
			stmt, err = g.genQuery()
		}
		if err != nil {
			return nil, err
		}
		w.Statements = append(w.Statements, stmt)
	}
	return w, nil
}

// sample returns a random live value of table.column, or a NULL datum when
// the table is empty.
func (g *generator) sample(table, column string) catalog.Datum {
	key := query.ColumnRef{Table: table, Column: column}
	vals, ok := g.colValues[key]
	if !ok {
		var vs []catalog.Datum
		if td, err := g.db.Table(table); err == nil {
			vs, err = td.ColumnValues(column)
			if err != nil {
				vs = nil
			}
		}
		g.colValues[key] = vs
		vals = vs
	}
	if len(vals) == 0 {
		t, _ := g.schema.Table(table)
		col, _ := t.Column(column)
		return catalog.NewNull(col.Type)
	}
	return vals[g.rng.Intn(len(vals))]
}

// pickTables grows a connected subgraph of the FK graph starting from a
// random table, up to n tables. To keep generated queries in the
// decision-support snowflake shape (and their results bounded by the
// largest fact table), at most ONE expansion in the one-to-many direction
// is allowed per query: adding a second referencing ("fact") branch —
// whether under the same parent or reachable through another dimension —
// cross-products the branches per shared key, which explodes under skew.
// Many-to-one (dimension) expansions are unrestricted; together with the
// single downward step they generate the classic TPC-D chain-of-facts plus
// dimensions query shapes.
func (g *generator) pickTables(n int) []string {
	start := g.tableNames[g.rng.Intn(len(g.tableNames))]
	chosen := map[string]bool{start: true}
	order := []string{start}
	downUsed := false
	for len(order) < n {
		// Frontier: FK edges with exactly one endpoint inside, excluding
		// blocked one-to-many expansions.
		var frontier []catalog.ForeignKey
		for t := range chosen {
			for _, fk := range g.adj[t] {
				a, b := fk.Table, fk.RefTable
				if chosen[a] == chosen[b] {
					continue
				}
				if chosen[b] && downUsed {
					// b is the chosen parent; adding the referencing table
					// a would open a second fact branch.
					continue
				}
				frontier = append(frontier, fk)
			}
		}
		if len(frontier) == 0 {
			break
		}
		sort.Slice(frontier, func(i, j int) bool {
			return fkKey(frontier[i]) < fkKey(frontier[j])
		})
		fk := frontier[g.rng.Intn(len(frontier))]
		a, b := fk.Table, fk.RefTable
		if chosen[b] && !chosen[a] {
			downUsed = true
		}
		for _, t := range []string{a, b} {
			if !chosen[t] {
				chosen[t] = true
				order = append(order, t)
			}
		}
	}
	return order
}

func fkKey(fk catalog.ForeignKey) string {
	return fk.Table + "." + fk.Column + "=" + fk.RefTable + "." + fk.RefColumn
}

// joinPredsFor emits one equi-join predicate per FK edge internal to the
// chosen tables, keeping the query graph connected.
func (g *generator) joinPredsFor(tables []string) []query.JoinPred {
	chosen := make(map[string]bool, len(tables))
	for _, t := range tables {
		chosen[t] = true
	}
	var preds []query.JoinPred
	for _, fk := range g.schema.ForeignKeys {
		a, b := fk.Table, fk.RefTable
		if chosen[a] && chosen[b] {
			preds = append(preds, query.JoinPred{
				Left:  query.ColumnRef{Table: a, Column: fk.Column},
				Right: query.ColumnRef{Table: b, Column: fk.RefColumn},
			})
		}
	}
	return preds
}

// filterableColumns lists the columns of a table suitable for predicates:
// everything except the wide comment/name/address text columns (mirroring
// Rags' use of comparable columns).
func (g *generator) filterableColumns(table string) []catalog.Column {
	t, err := g.schema.Table(table)
	if err != nil {
		return nil
	}
	var out []catalog.Column
	for _, c := range t.Columns {
		if strings.Contains(c.Name, "comment") || strings.Contains(c.Name, "address") || strings.Contains(c.Name, "name") && c.Type == catalog.String && !strings.Contains(c.Name, "mktsegment") {
			continue
		}
		out = append(out, c)
	}
	return out
}

func (g *generator) genFilter(table string) (query.Filter, bool) {
	cols := g.filterableColumns(table)
	if len(cols) == 0 {
		return query.Filter{}, false
	}
	col := cols[g.rng.Intn(len(cols))]
	val := g.sample(table, col.Name)
	if val.Null {
		return query.Filter{}, false
	}
	var op query.CmpOp
	if col.Type == catalog.String {
		op = query.Eq
	} else {
		switch g.rng.Intn(5) {
		case 0:
			op = query.Eq
		case 1:
			op = query.Lt
		case 2:
			op = query.Le
		case 3:
			op = query.Gt
		default:
			op = query.Ge
		}
		if g.cfg.NePct > 0 && g.rng.Intn(100) < g.cfg.NePct {
			op = query.Ne
		}
		if g.cfg.OutOfRangePct > 0 && g.rng.Intn(100) < g.cfg.OutOfRangePct {
			val = pushOutOfRange(g.rng, val)
		}
	}
	return query.Filter{
		Col: query.ColumnRef{Table: table, Column: col.Name},
		Op:  op,
		Val: val,
	}, true
}

func (g *generator) genQuery() (query.Statement, error) {
	max := g.cfg.Complexity.maxTables()
	n := 1 + g.rng.Intn(max)
	tables := g.pickTables(n)
	q := &query.Select{Tables: tables, GroupVarID: -1}
	q.Joins = g.joinPredsFor(tables)

	nFilters := 1 + g.rng.Intn(3)
	for i := 0; i < nFilters; i++ {
		t := tables[g.rng.Intn(len(tables))]
		if f, ok := g.genFilter(t); ok {
			q.Filters = append(q.Filters, f)
		}
	}
	if g.rng.Intn(100) < g.cfg.GroupByPct {
		t := tables[g.rng.Intn(len(tables))]
		if cols := g.filterableColumns(t); len(cols) > 0 {
			c := cols[g.rng.Intn(len(cols))]
			q.GroupBy = append(q.GroupBy, query.ColumnRef{Table: t, Column: c.Name})
			if g.rng.Intn(100) < 30 {
				c2 := cols[g.rng.Intn(len(cols))]
				if c2.Name != c.Name {
					q.GroupBy = append(q.GroupBy, query.ColumnRef{Table: t, Column: c2.Name})
				}
			}
			// Grouped queries project their group columns and aggregate,
			// like real decision-support SQL.
			q.Projection = append([]query.ColumnRef(nil), q.GroupBy...)
			q.Aggregates = append(q.Aggregates, query.Aggregate{Func: query.CountStar})
			if num := g.numericColumn(t); num != "" && g.rng.Intn(100) < 60 {
				fns := []query.AggFunc{query.Sum, query.Avg, query.Min, query.Max}
				q.Aggregates = append(q.Aggregates, query.Aggregate{
					Func: fns[g.rng.Intn(len(fns))],
					Col:  query.ColumnRef{Table: t, Column: num},
				})
			}
			if g.cfg.HavingPct > 0 && g.rng.Intn(100) < g.cfg.HavingPct {
				ops := []query.CmpOp{query.Gt, query.Ge, query.Le}
				q.Having = append(q.Having, query.HavingPred{
					Agg: query.Aggregate{Func: query.CountStar},
					Op:  ops[g.rng.Intn(len(ops))],
					Val: catalog.NewInt(int64(1 + g.rng.Intn(3))),
				})
			}
		}
	}
	if len(q.GroupBy) == 0 && g.rng.Intn(100) < g.cfg.OrderByPct {
		t := tables[g.rng.Intn(len(tables))]
		if cols := g.filterableColumns(t); len(cols) > 0 {
			c := cols[g.rng.Intn(len(cols))]
			q.OrderBy = append(q.OrderBy, query.ColumnRef{Table: t, Column: c.Name})
		}
	}
	q.Normalize()
	return q, nil
}

// numericColumn picks a random numeric (Int/Float) filterable column of the
// table, or "" if none.
func (g *generator) numericColumn(table string) string {
	var nums []string
	for _, c := range g.filterableColumns(table) {
		if c.Type == catalog.Int || c.Type == catalog.Float {
			nums = append(nums, c.Name)
		}
	}
	if len(nums) == 0 {
		return ""
	}
	return nums[g.rng.Intn(len(nums))]
}

func (g *generator) genDML() (query.Statement, error) {
	table := g.tableNames[g.rng.Intn(len(g.tableNames))]
	t, err := g.schema.Table(table)
	if err != nil {
		return nil, err
	}
	switch g.rng.Intn(3) {
	case 0: // INSERT: every column sampled from the live distribution.
		vals := make([]catalog.Datum, len(t.Columns))
		for i, c := range t.Columns {
			vals[i] = g.sample(table, c.Name)
			if vals[i].Null {
				vals[i] = zeroDatum(c.Type)
			}
		}
		return &query.Insert{Table: t.Name, Values: vals}, nil
	case 1: // DELETE with an equality predicate.
		d := &query.Delete{Table: t.Name}
		if f, ok := g.genFilter(t.Name); ok {
			f.Op = query.Eq
			d.Filters = []query.Filter{f}
		} else {
			// No usable filter column: delete nothing rather than everything.
			d.Filters = []query.Filter{{
				Col: query.ColumnRef{Table: t.Name, Column: t.Columns[0].Name},
				Op:  query.Lt,
				Val: zeroDatum(t.Columns[0].Type),
			}}
		}
		return d, nil
	default: // UPDATE a non-key column.
		u := &query.Update{Table: t.Name}
		cols := g.filterableColumns(t.Name)
		if len(cols) == 0 {
			cols = t.Columns
		}
		c := cols[g.rng.Intn(len(cols))]
		u.SetCol = c.Name
		u.SetVal = g.sample(table, c.Name)
		if u.SetVal.Null {
			u.SetVal = zeroDatum(c.Type)
		}
		if f, ok := g.genFilter(t.Name); ok {
			u.Filters = []query.Filter{f}
		}
		return u, nil
	}
}

// pushOutOfRange moves a sampled numeric constant far outside any live
// column domain (TPC-D values stay well under 10^9), in a random direction.
// Non-numeric datums are returned unchanged.
func pushOutOfRange(rng *rand.Rand, val catalog.Datum) catalog.Datum {
	sign := int64(1)
	if rng.Intn(2) == 0 {
		sign = -1
	}
	switch val.T {
	case catalog.Int:
		return catalog.NewInt(val.I + sign*(1<<40))
	case catalog.Float:
		return catalog.NewFloat(val.F + float64(sign)*1e12)
	case catalog.Date:
		return catalog.NewDate(val.I + sign*(1<<40))
	default:
		return val
	}
}

func zeroDatum(t catalog.Type) catalog.Datum {
	switch t {
	case catalog.Float:
		return catalog.NewFloat(0)
	case catalog.String:
		return catalog.NewString("")
	case catalog.Date:
		return catalog.NewDate(0)
	default:
		return catalog.NewInt(0)
	}
}
