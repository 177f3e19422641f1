// Package core implements the paper's contribution: the candidate-statistics
// algorithm (§7.1) with its exhaustive baseline, the equivalence notions and
// essential-set definitions (§3), Magic Number Sensitivity Analysis (§4,
// Figure 1), MNSA/D (§5.1), the Shrinking Set algorithm (§5.2, Figure 2),
// and the §6 policy engine that ties them into automatic statistics
// management.
package core

import (
	"slices"
	"sort"

	"autostats/internal/query"
	"autostats/internal/stats"
)

// Candidate names a statistic that may be worth building for a query.
type Candidate struct {
	Table   string
	Columns []string
}

// ID returns the candidate's statistic ID.
func (c Candidate) ID() stats.ID { return stats.MakeID(c.Table, c.Columns) }

// relevantColumns classifies the statistics-relevant columns of a query by
// role. Per §3.1 (footnote 1), ORDER BY-only columns are NOT relevant:
// statistics on them cannot affect cost estimation or plan choice.
type relevantColumns struct {
	selection map[string][]string // table -> selection-predicate columns
	join      map[string][]string // table -> join columns
	group     map[string][]string // table -> grouping columns
}

func classifyColumns(q *query.Select) relevantColumns {
	rc := relevantColumns{
		selection: map[string][]string{},
		join:      map[string][]string{},
		group:     map[string][]string{},
	}
	add := func(m map[string][]string, c query.ColumnRef) {
		if !slices.Contains(m[c.Table], c.Column) {
			m[c.Table] = append(m[c.Table], c.Column)
		}
	}
	for _, f := range q.Filters {
		add(rc.selection, f.Col)
	}
	for _, j := range q.Joins {
		add(rc.join, j.Left)
		add(rc.join, j.Right)
	}
	for _, g := range q.GroupingColumns() {
		add(rc.group, g)
	}
	for _, m := range []map[string][]string{rc.selection, rc.join, rc.group} {
		for t := range m {
			sort.Strings(m[t])
		}
	}
	return rc
}

// allColumns returns the union of relevant columns per table.
func (rc relevantColumns) allColumns() map[string][]string {
	out := map[string][]string{}
	seen := map[string]map[string]bool{}
	for _, m := range []map[string][]string{rc.selection, rc.join, rc.group} {
		for t, cols := range m {
			if seen[t] == nil {
				seen[t] = map[string]bool{}
			}
			for _, c := range cols {
				if !seen[t][c] {
					seen[t][c] = true
					out[t] = append(out[t], c)
				}
			}
		}
	}
	for t := range out {
		sort.Strings(out[t])
	}
	return out
}

// CandidateStats implements the §7.1 Candidate Statistics algorithm. For a
// query it proposes:
//
//	(a) a single-column statistic on each relevant column;
//	(b) one multi-column statistic per table on the selection-predicate
//	    columns;
//	(c) one multi-column statistic per table on the join columns;
//	(d) one multi-column statistic per table on the GROUP BY columns.
//
// Column lists inside multi-column candidates are sorted by name so lookups
// are canonical. Example 3 of the paper is reproduced by TestExample3.
func CandidateStats(q *query.Select) []Candidate {
	rc := classifyColumns(q)
	var out []Candidate
	seen := map[stats.ID]bool{}
	emit := func(table string, cols []string) {
		if len(cols) == 0 {
			return
		}
		c := Candidate{Table: table, Columns: append([]string(nil), cols...)}
		if id := c.ID(); !seen[id] {
			seen[id] = true
			out = append(out, c)
		}
	}
	// (a) single-column statistics on every relevant column.
	all := rc.allColumns()
	tables := sortedKeys(all)
	for _, t := range tables {
		for _, c := range all[t] {
			emit(t, []string{c})
		}
	}
	// (b)-(d) one multi-column statistic per table per role, when the role
	// has at least two columns on that table.
	for _, role := range []map[string][]string{rc.selection, rc.join, rc.group} {
		for _, t := range sortedKeys(role) {
			if cols := role[t]; len(cols) >= 2 {
				emit(t, cols)
			}
		}
	}
	return out
}

// SingleColumnCandidates restricts candidates to single-column statistics on
// relevant columns — the §8.2 variant experiment ("the candidate statistics
// considered were only single-column statistics on relevant columns").
func SingleColumnCandidates(q *query.Select) []Candidate {
	var out []Candidate
	for _, c := range CandidateStats(q) {
		if len(c.Columns) == 1 {
			out = append(out, c)
		}
	}
	return out
}

// exhaustiveMaxWidth caps subset width for the Exhaustive baseline so its
// combinatorial growth stays runnable; §7.1 notes the full space is "very
// large", which is exactly what Figure 3 measures against.
const exhaustiveMaxWidth = 4

// ExhaustiveStats is the Figure 3 baseline: every syntactically relevant
// statistic — all single-column statistics plus a multi-column statistic on
// EVERY subset (size ≥ 2, up to exhaustiveMaxWidth columns) of each table's
// relevant columns. For Example 3 this includes the (e,f), (f,g), (e,g)
// statistics that CandidateStats deliberately skips.
func ExhaustiveStats(q *query.Select) []Candidate {
	all := classifyColumns(q).allColumns()
	var out []Candidate
	seen := map[stats.ID]bool{}
	for _, t := range sortedKeys(all) {
		cols := all[t]
		n := len(cols)
		for mask := 1; mask < 1<<n; mask++ {
			var subset []string
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					subset = append(subset, cols[i])
				}
			}
			if len(subset) > exhaustiveMaxWidth {
				continue
			}
			c := Candidate{Table: t, Columns: subset}
			if id := c.ID(); !seen[id] {
				seen[id] = true
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Columns) != len(out[j].Columns) {
			return len(out[i].Columns) < len(out[j].Columns)
		}
		return out[i].ID() < out[j].ID()
	})
	return out
}

// WorkloadCandidates returns the union of per-query candidates across the
// workload (Definition 2's candidate set), deduplicated, in first-seen
// order.
func WorkloadCandidates(queries []*query.Select, fn func(*query.Select) []Candidate) []Candidate {
	var out []Candidate
	seen := map[stats.ID]bool{}
	for _, q := range queries {
		for _, c := range fn(q) {
			if id := c.ID(); !seen[id] {
				seen[id] = true
				out = append(out, c)
			}
		}
	}
	return out
}

func sortedKeys(m map[string][]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
