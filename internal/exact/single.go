package exact

import (
	"cmp"
	"fmt"
	"slices"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// SolveSingle returns an optimal solution to the Single problem, or an
// error if the instance is infeasible (some ri > W) or the work budget
// is exceeded. Single is NP-hard in the strong sense even on binary
// trees with no distance constraint (Theorem 1), so this solver is
// exponential (SearchSingle); use it on small instances only. It is
// the exact-single engine's body: in must be valid, and the answer is
// not verified here, since the engine's seam validates the instance
// and verifies the answer.
func SolveSingle(in *core.Instance, opt Options) (*core.Solution, error) {
	if !in.FitsLocally() {
		return nil, fmt.Errorf("exact: some client exceeds W=%d; Single has no solution", in.W)
	}
	var o Transport
	o.Reset(in)
	sol, err := SearchSingle(&o, opt)
	if err != nil {
		return nil, err
	}
	if sol == nil {
		// Trivial solution (every client serves itself) is always
		// feasible under the Single precondition, so this is
		// unreachable; defensive.
		return nil, fmt.Errorf("exact: no Single solution found")
	}
	return sol, nil
}

// SearchSingle returns a Single placement with the fewest replicas over
// oracle o's clients, eligibility and capacities: a branch-and-bound
// over client→server assignments, each client's whole bundle on one
// server. It returns nil when no placement exists, and ErrBudget when
// the search takes more than opt's budget of node expansions.
func SearchSingle(o *Transport, opt Options) (*core.Solution, error) {
	nc := len(o.clients)
	if nc == 0 {
		return &core.Solution{}, nil
	}
	s := &singleSearch{o: o, budget: opt.budget(), best: nc + 1}
	// Branch on clients in decreasing request order: big unsplittable
	// bundles first maximises pruning.
	s.order = make([]int32, nc)
	for ci := range s.order {
		s.order[ci] = int32(ci)
	}
	slices.SortFunc(s.order, func(a, b int32) int {
		if c := cmp.Compare(o.reqs[b], o.reqs[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	s.remaining = make([]int64, nc+1)
	for k := nc - 1; k >= 0; k-- {
		s.remaining[k] = s.remaining[k+1] + o.reqs[s.order[k]]
	}
	for _, c := range o.caps {
		if c > 0 {
			s.caps = append(s.caps, c)
		}
	}
	slices.SortFunc(s.caps, func(a, b int64) int { return cmp.Compare(b, a) })
	s.resid = make([]int64, len(o.caps))
	for j := range s.resid {
		s.resid[j] = -1
	}
	s.assign = make([]tree.NodeID, nc)
	s.dfs(0)
	opt.record(s.budget)
	if s.budget <= 0 {
		return nil, ErrBudget
	}
	if s.bestAssign == nil {
		return nil, nil
	}
	sol := &core.Solution{}
	for k, srv := range s.bestAssign {
		ci := s.order[k]
		sol.AddReplica(srv)
		sol.Assign(o.clients[ci], srv, o.reqs[ci])
	}
	sol.Normalize()
	return sol, nil
}

type singleSearch struct {
	o          *Transport
	order      []int32 // client indices in branching order
	remaining  []int64 // remaining[k] = Σ requests of order[k:]
	caps       []int64 // the positive capacities, decreasing
	resid      []int64 // node-indexed residual capacity; -1 not open
	open       int     // open servers
	residTotal int64   // Σ residual capacity of the open servers
	assign     []tree.NodeID
	best       int
	bestAssign []tree.NodeID
	budget     int64
}

func (s *singleSearch) dfs(k int) {
	if s.budget <= 0 {
		return
	}
	s.budget--
	if s.open >= s.best {
		return
	}
	if k == len(s.order) {
		s.best = s.open
		s.bestAssign = append(s.bestAssign[:0], s.assign...)
		return
	}
	// Optimistic bound: even if all residual capacity of open servers
	// is usable, the overflow needs at least as many new servers as the
	// largest capacities take to cover it (⌈overflow/W⌉ when uniform).
	if over := s.remaining[k] - s.residTotal; over > 0 {
		extra := 0
		for _, c := range s.caps {
			if over <= 0 {
				break
			}
			over -= c
			extra++
		}
		if over > 0 || s.open+extra >= s.best {
			return
		}
	}

	ci := s.order[k]
	r := s.o.reqs[ci]
	// Try open servers first (no objective increase), then new ones.
	for _, srv := range s.o.elig(int(ci)) {
		res := s.resid[srv]
		if res < r {
			continue
		}
		s.resid[srv] = res - r
		s.residTotal -= r
		s.assign[k] = srv
		s.dfs(k + 1)
		s.resid[srv] = res
		s.residTotal += r
	}
	if s.open+1 >= s.best {
		return
	}
	for _, srv := range s.o.elig(int(ci)) {
		res := s.o.caps[srv] - r
		if s.resid[srv] >= 0 || res < 0 {
			continue
		}
		s.resid[srv] = res
		s.residTotal += res
		s.open++
		s.assign[k] = srv
		s.dfs(k + 1)
		s.resid[srv] = -1
		s.residTotal -= res
		s.open--
	}
}
