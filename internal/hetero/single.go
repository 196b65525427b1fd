package hetero

import (
	"fmt"

	"replicatree/internal/core"
	"replicatree/internal/exact"
	"replicatree/internal/tree"
)

// SolveSingle finds an optimal Single-policy placement under
// heterogeneous capacities: every client's whole bundle goes to one
// replica whose capacity covers the sum of its assigned bundles. It is
// exact.SearchSingle, the branch-and-bound of exact.SolveSingle, on the
// capacity-aware oracle, under the given work budget (0 means
// exact.DefaultBudget). Exponential; small instances only.
func SolveSingle(in *Instance, budget int64) (*core.Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	// Single feasibility needs ri ≤ Cap[s] for some eligible s.
	t := in.Tree
	for _, c := range t.Clients() {
		r := t.Requests(c)
		if r == 0 {
			continue
		}
		fits := false
		for _, s := range t.EligibleServers(c, in.DMax) {
			fits = fits || in.Cap[s] >= r
		}
		if !fits {
			return nil, fmt.Errorf("hetero: client %d (r=%d) fits no eligible node", c, r)
		}
	}
	sol, err := exact.SearchSingle(in.transport(), exact.Options{Budget: budget})
	if err != nil {
		return nil, err
	}
	if sol == nil {
		return nil, fmt.Errorf("hetero: no Single solution found")
	}
	if err := in.Verify(sol); err != nil {
		return nil, fmt.Errorf("hetero: single solver produced infeasible solution: %w", err)
	}
	return sol, nil
}

// VerifySingle checks the Single policy on top of Verify: one server
// per client.
func (in *Instance) VerifySingle(sol *core.Solution) error {
	if err := in.Verify(sol); err != nil {
		return err
	}
	seen := make(map[tree.NodeID]tree.NodeID)
	for _, a := range sol.Assignments {
		if prev, ok := seen[a.Client]; ok && prev != a.Server {
			return fmt.Errorf("hetero: client %d split across %d and %d under Single", a.Client, prev, a.Server)
		}
		seen[a.Client] = a.Server
	}
	return nil
}
