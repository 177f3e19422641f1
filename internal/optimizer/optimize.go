package optimizer

import (
	"fmt"
	"slices"
	"time"

	"autostats/internal/query"
)

// Optimize produces the best plan for q under the session's visible
// statistics. The search is dynamic programming over connected table subsets
// with hash, merge, nested-loop and index-nested-loop join strategies and
// scan-vs-seek access paths; self-joins are not supported.
func (s *Session) Optimize(q *query.Select) (*Plan, error) {
	return s.OptimizeWhatIf(q, WhatIf{})
}

// OptimizeWhatIf is Optimize under the statistics configuration w: the
// statistics w hides are invisible and w's overrides replace magic numbers.
// The empty WhatIf is Optimize.
func (s *Session) OptimizeWhatIf(q *query.Select, w WhatIf) (*Plan, error) {
	if len(q.Tables) == 0 {
		return nil, fmt.Errorf("optimizer: query has no tables")
	}
	if len(q.Tables) > 16 {
		return nil, fmt.Errorf("optimizer: %d tables exceeds the 16-table join limit", len(q.Tables))
	}

	// A what-if configuration bypasses the cache in both directions. Hidden
	// statistics (Shrinking Set, MNSA/D's rescue probes) or selectivity
	// overrides (MNSA's ε / 1−ε pair) describe a statistics configuration no
	// served statement runs under: such a plan can never be a hit for the
	// workload, inserting it would evict plans that can, and counting it as
	// a miss would make the hit rate measure the tuner instead of the
	// traffic. That is also why w is not part of the cache key.
	bypass := !w.empty()

	// The cache key is parameterized: the statement template plus the
	// selectivity bucket of each lifted constant (see paramkey.go).
	// Statements with more filters than the key can carry bypass the cache.
	// The epoch is read before the bucket probe and re-checked in the
	// assembled key: if a statistics mutation lands between the two reads the
	// buckets may mix old and new histograms, so the lookup (and the publish
	// below) is abandoned rather than risk caching under a torn key.
	var key planKey
	cacheable := false
	if s.cache != nil && !bypass && len(q.Filters) <= maxCachedParams {
		e0 := s.prov.Epoch()
		key = s.cacheKey(q.Template(), s.planBuckets(q))
		cacheable = key.epoch == e0
		if cacheable {
			if p, ok := s.cache.get(key, q); ok {
				s.met.cacheHits.Inc()
				return p, nil
			}
			s.met.cacheMisses.Inc()
		}
	}

	start := time.Now()
	p, err := s.optimize(q, w)
	if err != nil {
		return nil, err
	}
	s.met.optimizations.Inc()
	s.met.optimizeLatency.Observe(time.Since(start))
	if bypass && s.cache != nil {
		s.met.cacheBypasses.Inc()
	}
	// Publish only if no statistics or data mutation raced with this
	// optimization; a plan built from a torn read must not be cached.
	if cacheable && s.prov.Epoch() == key.epoch && s.prov.Database().DataVersion() == key.dataVersion {
		if s.cache.put(key, p) {
			s.met.cacheEvictions.Inc()
		}
	}
	return p, nil
}

func (s *Session) optimize(q *query.Select, w WhatIf) (*Plan, error) {
	e := newEstimator(s, q, w)

	// A table's position in FROM is its bit in the enumerator's subset masks;
	// self-joins are rejected.
	tables := q.Tables
	for i, t := range tables {
		if slices.Contains(tables[:i], t) {
			return nil, fmt.Errorf("optimizer: self-join on table %s is not supported", t)
		}
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

	groups, err := groupJoins(tables, q.Joins)
	if err != nil {
		return nil, err
	}
	root := e.bestJoinTree(tables, base, groups)

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

// aggregateSet unions the SELECT-list aggregates with any extra aggregates
// HAVING references, deduplicated by output key, so the executor computes
// everything the predicates need.
func aggregateSet(q *query.Select) []query.Aggregate {
	out := append([]query.Aggregate(nil), q.Aggregates...)
	seen := make(map[string]bool, len(out))
	for _, a := range out {
		seen[a.Key()] = true
	}
	for _, h := range q.Having {
		if !seen[h.Agg.Key()] {
			seen[h.Agg.Key()] = true
			out = append(out, h.Agg)
		}
	}
	return out
}

// havingSelectivity prices HAVING predicates with a fixed factor per
// conjunct: no statistics can exist on aggregate outputs, and the constant
// keeps the cost model monotone in the real selectivity variables.
func havingSelectivity(q *query.Select) float64 {
	sel := 1.0
	for range q.Having {
		sel *= 0.5
	}
	return sel
}

// bestAccessPath picks the cheapest way to produce the filtered rows of one
// table: a sequential scan, or a seek on any index whose column carries a
// sargable filter. This is the access-path decision that statistics most
// directly influence (magic range selectivity 0.30 never justifies a seek;
// a histogram showing 0.1 % does).
func (e *estimator) bestAccessPath(table string, rawRows, sel float64, filters []query.Filter) *Node {
	outRows := rawRows * sel
	if outRows < minSelectivity {
		outRows = minSelectivity
	}
	bestNode := &Node{
		Op:      OpTableScan,
		Table:   table,
		Filters: filters,
		EstRows: outRows,
		Cost:    rawRows * CostRowScan,
	}
	schema := e.sess.prov.Database().Schema
	for _, ix := range schema.Indexes {
		if ix.Table != table {
			continue
		}
		var seekFilters []query.Filter
		seekSel := 1.0
		for _, f := range filters {
			if f.Col.Column != ix.Column || f.Op == query.Ne {
				continue
			}
			seekFilters = append(seekFilters, f)
			seekSel *= e.filterSel(f)
		}
		if len(seekFilters) == 0 {
			continue
		}
		cost := SeekCost(rawRows) + CostRowFetch*rawRows*seekSel
		if cost < bestNode.Cost {
			bestNode = &Node{
				Op:          OpIndexSeek,
				Table:       table,
				Index:       ix.Name,
				IndexCol:    ix.Column,
				Filters:     filters,
				SeekFilters: seekFilters,
				EstRows:     outRows,
				Cost:        cost,
			}
		}
	}
	return bestNode
}

// baseInfo caches per-table estimates during one optimization.
type baseInfo struct {
	rawRows float64
	sel     float64
	plan    *Node
}
