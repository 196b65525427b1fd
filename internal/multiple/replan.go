package multiple

import (
	"fmt"
	"slices"

	"replicatree/internal/core"
	"replicatree/internal/exact"
	"replicatree/internal/tree"
)

// Churn quantifies the difference between two placements: replicas
// added, replicas removed, and the amount of request flow that changed
// servers.
type Churn struct {
	Added   []tree.NodeID
	Removed []tree.NodeID
	// MovedRequests is the total request volume assigned to a
	// different server than before (computed per (client, server)
	// pair).
	MovedRequests int64
}

// PlanDelta computes the churn from old to new, two normalized
// solutions on the same tree (a nil solution counts as empty). It
// merges the sorted replica lists and the (client, server)-sorted
// assignment lists in one linear pass; Added and Removed stay nil when
// empty.
func PlanDelta(old, new *core.Solution) Churn {
	var ch Churn
	if old == nil {
		old = &core.Solution{}
	}
	if new == nil {
		new = &core.Solution{}
	}
	or, nr := old.Replicas, new.Replicas
	for len(or) > 0 || len(nr) > 0 {
		switch {
		case len(nr) == 0 || len(or) > 0 && or[0] < nr[0]:
			ch.Removed = append(ch.Removed, or[0])
			or = or[1:]
		case len(or) == 0 || nr[0] < or[0]:
			ch.Added = append(ch.Added, nr[0])
			nr = nr[1:]
		default:
			or, nr = or[1:], nr[1:]
		}
	}
	oa := old.Assignments
	for _, a := range new.Assignments {
		for len(oa) > 0 && (oa[0].Client < a.Client || oa[0].Client == a.Client && oa[0].Server < a.Server) {
			oa = oa[1:]
		}
		var kept int64
		if len(oa) > 0 && oa[0].Client == a.Client && oa[0].Server == a.Server {
			kept = oa[0].Amount
		}
		if a.Amount > kept {
			ch.MovedRequests += a.Amount - kept
		}
	}
	return ch
}

// ReplanExcluding adapts an existing feasible placement to a new
// instance (typically the same tree with changed request rates or a
// changed W) while minimising churn; it is the multiple-replan
// engine's body:
//
//  1. keep the old replica set if it is still feasible (re-routing
//     only — zero placement churn);
//  2. otherwise grow it with the candidates that can serve the most
//     demand until feasible;
//  3. then drop replicas that became redundant, old ones last, so
//     long as the set stays feasible.
//
// Its churn against old is reported alongside. It never guarantees
// optimal replica counts — that is the price of stability; compare
// with multiple-best to see the gap.
//
// excluded is a set of forbidden replica sites — failed servers that
// must host nothing in the new placement. Old replicas on excluded
// nodes are dropped before adaptation (their clients' demand is
// re-homed like any other stuck demand) and excluded nodes never enter
// the growth pool.
//
// The growth pool is every other node that can serve some request, by
// decreasing reach (the requests it can serve), then ID; growth and
// shrinking are exact.Transport.GrowPrune on the old set and the pool.
// in must be valid, and the answer is not verified here: the engine's
// seam validates the instance and verifies the answer, excluded nodes
// included.
func ReplanExcluding(in *core.Instance, old *core.Solution, excluded []tree.NodeID) (*core.Solution, Churn, error) {
	t := in.Tree
	skip := make([]bool, t.Len()) // excluded, or already in R
	for _, x := range excluded {
		if t.Valid(x) {
			skip[x] = true
		}
	}
	// Sanitise the old replica set against the new tree (nodes must
	// exist and be up; stale assignments are discarded — only
	// locations count).
	var R []tree.NodeID
	for _, r := range old.Replicas {
		if t.Valid(r) && !skip[r] {
			skip[r] = true
			R = append(R, r)
		}
	}
	var o exact.Transport
	o.Reset(in)
	cands, _ := o.Candidates()
	pool := slices.DeleteFunc(cands, func(j tree.NodeID) bool { return skip[j] })
	grown, ok := o.GrowPrune(R, pool)
	if !ok {
		return nil, Churn{}, fmt.Errorf("multiple: replan cannot reach feasibility")
	}
	sol := &core.Solution{}
	if err := o.Assign(sol, grown); err != nil {
		return nil, Churn{}, err
	}
	prev := old.Clone()
	prev.Normalize()
	return sol, PlanDelta(prev, sol), nil
}
