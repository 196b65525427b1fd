package exact

import (
	"fmt"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// SolveMultiple returns an optimal solution to the Multiple problem.
// Unlike the polynomial Algorithm 3, it handles arbitrary arity,
// arbitrary distance bounds and clients with ri > W (the NP-hard
// regime of Theorem 5). It enumerates replica sets of increasing size
// with the Transport feasibility oracle (SearchMultiple).
func SolveMultiple(in *core.Instance, opt Options) (*core.Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	var o Transport
	o.Reset(in)
	cands, _ := o.Candidates()
	if len(cands) == 0 {
		return &core.Solution{}, nil
	}
	set, err := SearchMultiple(&o, cands, max(core.LowerBound(in), 1), opt)
	if err != nil {
		return nil, err
	}
	if set == nil {
		return nil, fmt.Errorf("exact: Multiple instance is infeasible")
	}
	sol := &core.Solution{}
	if err := o.Assign(sol, set); err != nil {
		return nil, err
	}
	if err := core.Verify(in, core.Multiple, sol); err != nil {
		return nil, fmt.Errorf("exact: multiple solver produced infeasible solution: %w", err)
	}
	return sol, nil
}

// SearchMultiple returns the first replica set, in lexicographic order
// over cands, of the smallest size k ≥ lb that oracle o finds feasible,
// or nil when even all of cands is infeasible. lb must not exceed the
// optimum. Feasibility is monotone in the replica set, so a branch
// whose chosen servers plus every remaining candidate are infeasible is
// pruned. Each feasibility test of a set R costs len(R)+1 steps of
// opt's budget; running out returns ErrBudget.
func SearchMultiple(o *Transport, cands []tree.NodeID, lb int, opt Options) ([]tree.NodeID, error) {
	s := kSearch{o: o, cands: cands, budget: opt.budget()}
	defer func() { opt.record(s.budget) }()

	// The full candidate set is the most powerful replica set; if even
	// it cannot serve everything, the instance is infeasible.
	if ok, _ := s.feasible(cands); !ok {
		if s.budget <= 0 {
			return nil, ErrBudget
		}
		return nil, nil
	}
	for k := lb; k <= len(cands); k++ {
		found, err := s.chooseK(make([]tree.NodeID, 0, k), 0, k)
		if err != nil || found != nil {
			return found, err
		}
	}
	return nil, fmt.Errorf("exact: no Multiple solution found (unreachable)")
}

type kSearch struct {
	o      *Transport
	cands  []tree.NodeID
	budget int64
	all    []tree.NodeID // chosen plus the remaining candidates
}

// chooseK searches for a feasible replica set of exactly k nodes from
// cands[from:] added to chosen. It returns the feasible set or nil.
func (s *kSearch) chooseK(chosen []tree.NodeID, from, k int) ([]tree.NodeID, error) {
	if s.budget <= 0 {
		return nil, ErrBudget
	}
	if len(chosen) == k {
		ok, err := s.feasible(chosen)
		if err != nil || !ok {
			return nil, err
		}
		return append([]tree.NodeID(nil), chosen...), nil
	}
	if len(chosen)+(len(s.cands)-from) < k {
		return nil, nil
	}
	// Monotone pruning: if chosen plus *all* remaining candidates is
	// infeasible, no completion of this branch can be feasible.
	if len(chosen) > 0 {
		s.all = append(append(s.all[:0], chosen...), s.cands[from:]...)
		ok, err := s.feasible(s.all)
		if err != nil || !ok {
			return nil, err
		}
	}
	for i := from; i < len(s.cands); i++ {
		res, err := s.chooseK(append(chosen, s.cands[i]), i+1, k)
		if err != nil || res != nil {
			return res, err
		}
	}
	return nil, nil
}

// feasible charges one test of R to the budget and runs it.
func (s *kSearch) feasible(R []tree.NodeID) (bool, error) {
	if s.budget <= 0 {
		return false, ErrBudget
	}
	s.budget -= int64(len(R)) + 1
	return s.o.Route(R), nil
}
