package core

import (
	"fmt"
	"math"

	"autostats/internal/optimizer"
)

// Equivalence compares two plans for the same query under one of the §3.2
// notions. The notions are ordered by increasing flexibility:
// execution-tree ⊂ optimizer-cost ⊂ t-optimizer-cost.
type Equivalence interface {
	// Equivalent reports whether the two plans are equivalent.
	Equivalent(a, b *optimizer.Plan) bool
	// Name identifies the notion in reports.
	Name() string
}

// ExecutionTree is the strongest notion: the optimizer generated the same
// execution tree for both statistics sets.
type ExecutionTree struct{}

// Equivalent compares plan signatures.
func (ExecutionTree) Equivalent(a, b *optimizer.Plan) bool {
	return a.Signature() == b.Signature()
}

// Name implements Equivalence.
func (ExecutionTree) Name() string { return "execution-tree" }

// optimizerCost requires the optimizer-estimated costs to be (numerically)
// equal; the plans themselves may differ.
type optimizerCost struct{}

// Equivalent compares estimated costs exactly (within floating-point noise).
func (optimizerCost) Equivalent(a, b *optimizer.Plan) bool {
	ca, cb := a.Cost(), b.Cost()
	if ca == cb {
		return true
	}
	// Tolerate relative float error; this is still "equal cost", not a
	// t-threshold.
	return math.Abs(ca-cb) <= 1e-9*math.Max(math.Abs(ca), math.Abs(cb))
}

// Name implements Equivalence.
func (optimizerCost) Name() string { return "optimizer-cost" }

// tOptimizerCost is the paper's pragmatic working definition: costs within
// t percent of each other (footnote 2:
// |cost(S) − cost(S')| / min(cost) < t/100). T is in percent; the paper's
// experiments use T = 20.
type tOptimizerCost struct {
	T float64
}

// Equivalent implements the footnote-2 test.
func (e tOptimizerCost) Equivalent(a, b *optimizer.Plan) bool {
	lo, hi := a.Cost(), b.Cost()
	if hi < lo {
		lo, hi = hi, lo
	}
	if lo <= 0 {
		return hi <= 0
	}
	return (hi-lo)/lo < e.T/100
}

// Name implements Equivalence.
func (e tOptimizerCost) Name() string { return fmt.Sprintf("%.0f%%-optimizer-cost", e.T) }
