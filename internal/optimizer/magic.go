// Package optimizer implements the cost-based query optimizer the selection
// algorithms run against: histogram/magic-number selectivity estimation,
// dynamic-programming join enumeration, access-path selection, and the two
// server extensions of §7.2 — Ignore_Statistics_Subset and parameterized
// predicate selectivities.
//
// Its cost model is monotone in every per-predicate selectivity variable,
// the cost-monotonicity assumption MNSA relies on (§4.1); a property test
// asserts this.
package optimizer

// The magic numbers: the default selectivities used when no statistics are
// available for a predicate (§4.1: "Magic numbers are system wide constants
// between 0 and 1 that are predetermined for various kinds of predicates").
// The values mirror classic System-R-descended optimizers: 0.30 for a range
// predicate (the value the paper quotes), 0.10 for equality.
const (
	// magicEq is the selectivity of an equality predicate (col = const).
	magicEq = 0.10
	// magicRange is the selectivity of an inequality predicate
	// (col < const etc.).
	magicRange = 0.30
	// magicNe is the selectivity of a non-equality predicate.
	magicNe = 0.90
	// magicJoin is the selectivity of an equi-join predicate when either
	// side lacks statistics.
	magicJoin = 0.10
	// magicGroupFrac is the distinct-value fraction of a GROUP BY / SELECT
	// DISTINCT clause (§4.1's aggregation selectivity variable).
	magicGroupFrac = 0.10
)
