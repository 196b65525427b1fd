package hetero

import (
	"cmp"
	"fmt"
	"slices"

	"replicatree/internal/core"
	"replicatree/internal/exact"
	"replicatree/internal/tree"
)

// Greedy places replicas with a coverage-driven greedy plus a pruning
// local search:
//
//  1. while the current set is infeasible, add the candidate that
//     maximises min(capacity, demand of the clients it can serve);
//  2. then drop replicas, last added first, while the set stays
//     feasible.
//
// The scores do not change as replicas are added, so step 1 takes the
// candidates in a stable sort by score, and both steps are exact's
// Transport.GrowPrune. Runs in polynomial time; the result is feasible
// whenever the full candidate set is, and experiments measure its gap
// to the exact optimum.
func Greedy(in *Instance) (*core.Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	o := in.transport()
	cands, cover := o.Candidates()
	if o.Route(nil) {
		return &core.Solution{}, nil // no requests at all
	}
	if !o.Route(cands) {
		return nil, fmt.Errorf("hetero: instance infeasible even with all candidates")
	}
	score := func(s tree.NodeID) int64 { return min(in.Cap[s], cover[s]) }
	slices.SortStableFunc(cands, func(a, b tree.NodeID) int { return cmp.Compare(score(b), score(a)) })
	chosen, ok := o.GrowPrune(nil, cands)
	if !ok {
		return nil, fmt.Errorf("hetero: greedy exhausted candidates (unreachable)")
	}
	sol := &core.Solution{}
	if err := o.Assign(sol, chosen); err != nil {
		return nil, fmt.Errorf("hetero: final set infeasible (unreachable)")
	}
	if err := in.Verify(sol); err != nil {
		return nil, fmt.Errorf("hetero: greedy produced infeasible solution: %w", err)
	}
	return sol, nil
}

// Solve finds an optimal replica set with exact.SearchMultiple on the
// capacity-aware oracle: sets of increasing size, from a lower bound
// of the largest capacities covering the total demand, with monotone
// pruning. Exponential; small instances only. Running out of the work
// budget (0 means exact.DefaultBudget) returns exact.ErrBudget.
func Solve(in *Instance, budget int64) (*core.Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	o := in.transport()
	cands, _ := o.Candidates()
	if o.Route(nil) {
		return &core.Solution{}, nil
	}
	// Lower bound: total demand vs the largest k capacities.
	total := in.Tree.TotalRequests()
	lb := 1
	var acc int64
	for i, s := range cands {
		acc += in.Cap[s]
		if acc >= total {
			lb = i + 1
			break
		}
	}
	set, err := exact.SearchMultiple(o, cands, lb, exact.Options{Budget: budget})
	if err != nil {
		return nil, err
	}
	if set == nil {
		return nil, fmt.Errorf("hetero: instance infeasible")
	}
	sol := &core.Solution{}
	if err := o.Assign(sol, set); err != nil {
		return nil, err
	}
	if err := in.Verify(sol); err != nil {
		return nil, err
	}
	return sol, nil
}
