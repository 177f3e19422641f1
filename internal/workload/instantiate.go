package workload

import (
	"math/rand"

	"autostats/internal/catalog"
	"autostats/internal/query"
	"autostats/internal/storage"
)

// Instantiator stamps out fresh parameter instances of template queries: the
// statement shape (tables, joins, grouping, ordering) is kept and every
// filter constant is re-sampled from the live data, exactly like the
// generator samples its original constants. Repeated-template benchmarks and
// the plan-cache regression suite use it to model the prepared-statement
// workloads the paper's tuning loop observes — same SQL text modulo
// constants, over and over.
type Instantiator struct {
	rng       *rand.Rand
	db        *storage.Database
	colValues map[query.ColumnRef][]catalog.Datum
}

// NewInstantiator samples from db's current contents; the seed makes every
// instance stream deterministic.
func NewInstantiator(db *storage.Database, seed int64) *Instantiator {
	return &Instantiator{
		rng:       rand.New(rand.NewSource(seed)),
		db:        db,
		colValues: make(map[query.ColumnRef][]catalog.Datum),
	}
}

// sample mirrors generator.sample: a random live value of table.column, with
// the column-value slice cached per column.
func (in *Instantiator) sample(table, column string) (catalog.Datum, bool) {
	key := query.ColumnRef{Table: table, Column: column}
	vals, ok := in.colValues[key]
	if !ok {
		if td, err := in.db.Table(table); err == nil {
			if vs, err := td.ColumnValues(column); err == nil {
				vals = vs
			}
		}
		in.colValues[key] = vals
	}
	if len(vals) == 0 {
		return catalog.Datum{}, false
	}
	return vals[in.rng.Intn(len(vals))], true
}

// Instantiate clones the template with every filter constant re-sampled from
// the filtered column's live values (a constant whose column has no live
// values is kept). The clone shares the template's immutable clause slices;
// only Filters is fresh. Selectivity-variable IDs carry over unchanged — the
// clone has the same shape, so Normalize would assign identical IDs.
func (in *Instantiator) Instantiate(tmpl *query.Select) *query.Select {
	q := *tmpl
	q.Filters = make([]query.Filter, len(tmpl.Filters))
	copy(q.Filters, tmpl.Filters)
	for i := range q.Filters {
		f := &q.Filters[i]
		if v, ok := in.sample(f.Col.Table, f.Col.Column); ok {
			f.Val = v
		}
	}
	return &q
}
