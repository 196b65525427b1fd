// Package exact provides optimal (exponential-time) solvers for both
// policies. The paper compares its algorithms against the true optimum
// analytically; this package materialises that optimum on small
// instances, powering the approximation-ratio experiments and the
// optimality proofs-by-measurement of the test suite.
//
// SolveSingle runs a branch-and-bound over client→server assignments
// (SearchSingle); SolveMultiple enumerates replica sets of increasing
// size with monotone pruning (SearchMultiple). Both are intended for
// instances with up to a few dozen nodes.
//
// Transport is the tree's one Multiple-policy feasibility oracle: the
// client→server transportation network with a capacity per node,
// warm and resumable. SolveMultiple, the LP rounding (lp.Session), the
// churn-minimising replan (multiple.ReplanExcluding) and the
// heterogeneous solvers (package hetero) all test and assign replica
// sets through it, and hetero's exact solvers are front ends of
// SearchMultiple and SearchSingle.
package exact

import "errors"

// ErrBudget is returned when a solver exceeds its work budget; the
// instance is too large for exact solving.
var ErrBudget = errors.New("exact: work budget exceeded")

// Options tunes the exact solvers.
type Options struct {
	// Budget bounds the number of elementary search steps (node
	// expansions / feasibility checks). 0 means DefaultBudget.
	Budget int64
	// Work, when non-nil, receives the number of elementary steps the
	// solve actually performed — the currency of solver.Report.Work.
	Work *int64
}

// DefaultBudget is the default work budget.
const DefaultBudget int64 = 50_000_000

func (o Options) budget() int64 {
	if o.Budget <= 0 {
		return DefaultBudget
	}
	return o.Budget
}

// record reports the steps consumed out of the initial budget, given
// the remaining budget at the end of the search (which over-budget
// searches may have driven slightly negative).
func (o Options) record(remaining int64) {
	if o.Work == nil {
		return
	}
	consumed := o.budget() - remaining
	if consumed < 0 {
		consumed = 0
	}
	*o.Work = consumed
}
