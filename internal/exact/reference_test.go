package exact

import (
	"fmt"
	"sort"

	"replicatree/internal/core"
	"replicatree/internal/flow"
	"replicatree/internal/tree"
)

// This file keeps the first bodies of the package as test oracles: the
// map-based transportation network rebuilt on every feasibility test,
// the replica-set enumeration over it, and the map-based Single
// branch-and-bound. Transport, SearchMultiple and SearchSingle must
// give the same verdicts, solutions and work counts.

// referenceCandidates is the first candidate order: nodes that can
// serve a client with positive requests, by decreasing coverage, then
// ID.
func referenceCandidates(in *core.Instance) []tree.NodeID {
	t := in.Tree
	cover := make(map[tree.NodeID]int64)
	for _, i := range t.Clients() {
		r := t.Requests(i)
		if r == 0 {
			continue
		}
		for _, s := range t.EligibleServers(i, in.DMax) {
			cover[s] += r
		}
	}
	out := make([]tree.NodeID, 0, len(cover))
	for s := range cover {
		out = append(out, s)
	}
	sort.Slice(out, func(a, b int) bool {
		if cover[out[a]] != cover[out[b]] {
			return cover[out[a]] > cover[out[b]]
		}
		return out[a] < out[b]
	})
	return out
}

// referenceEligible returns, for each client with requests, its
// eligible server list (path within dmax).
func referenceEligible(t *tree.Tree, dmax int64) (clients []tree.NodeID, elig map[tree.NodeID][]tree.NodeID) {
	elig = make(map[tree.NodeID][]tree.NodeID)
	for _, i := range t.Clients() {
		if t.Requests(i) == 0 {
			continue
		}
		clients = append(clients, i)
		elig[i] = t.EligibleServers(i, dmax)
	}
	return clients, elig
}

type referenceArc struct {
	client, server tree.NodeID
	arc            int
}

// referenceBuildFlow constructs the transportation network: node 0 =
// source, node 1 = sink, then one node per client with requests and
// one per replica. Source→client arcs carry ri, client→server arcs
// (when the server is eligible for the client) carry ri, server→sink
// arcs carry the server's capacity caps[s] (W on uniform instances).
func referenceBuildFlow(t *tree.Tree, dmax int64, caps []int64, R []tree.NodeID) (total int64, g *flow.Network, arcs []referenceArc, arcCaps []int64) {
	clients, elig := referenceEligible(t, dmax)
	rIndex := make(map[tree.NodeID]int, len(R))
	for _, s := range R {
		if _, dup := rIndex[s]; !dup {
			rIndex[s] = 0
		}
	}
	n := 2 + len(clients) + len(rIndex)
	g = flow.NewNetwork(n)
	idx := 2
	cIndex := make(map[tree.NodeID]int, len(clients))
	for _, c := range clients {
		cIndex[c] = idx
		idx++
	}
	for _, s := range R {
		if rIndex[s] == 0 {
			rIndex[s] = idx
			idx++
		}
	}
	for _, c := range clients {
		r := t.Requests(c)
		total += r
		g.AddEdge(0, cIndex[c], r)
		for _, s := range elig[c] {
			si, ok := rIndex[s]
			if !ok || si == 0 {
				continue
			}
			arc := g.AddEdge(cIndex[c], si, r)
			arcs = append(arcs, referenceArc{client: c, server: s, arc: arc})
			arcCaps = append(arcCaps, r)
		}
	}
	for s, si := range rIndex {
		g.AddEdge(si, 1, caps[s])
	}
	return total, g, arcs, arcCaps
}

// uniformCaps is W at every node.
func uniformCaps(in *core.Instance) []int64 {
	caps := make([]int64, in.Tree.Len())
	for j := range caps {
		caps[j] = in.W
	}
	return caps
}

// referenceFeasible is the first MultipleFeasible, with per-node
// capacities.
func referenceFeasible(t *tree.Tree, dmax int64, caps []int64, R []tree.NodeID) bool {
	total, g, _, _ := referenceBuildFlow(t, dmax, caps, R)
	if total == 0 {
		return true
	}
	return g.MaxFlow(0, 1) == total
}

// referenceAssignment is the first MultipleAssignment, with per-node
// capacities.
func referenceAssignment(t *tree.Tree, dmax int64, caps []int64, R []tree.NodeID) (*core.Solution, error) {
	total, g, arcs, arcCaps := referenceBuildFlow(t, dmax, caps, R)
	if got := g.MaxFlow(0, 1); got != total {
		return nil, fmt.Errorf("exact: replica set %v infeasible (flow %d of %d)", R, got, total)
	}
	sol := &core.Solution{}
	for _, r := range R {
		sol.AddReplica(r)
	}
	for i, a := range arcs {
		if amt := g.Flow(a.arc, arcCaps[i]); amt > 0 {
			sol.Assign(a.client, a.server, amt)
		}
	}
	sol.Normalize()
	return sol, nil
}

// referenceSolveMultiple is the first SolveMultiple.
func referenceSolveMultiple(in *core.Instance, opt Options) (*core.Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	cands := referenceCandidates(in)
	if len(cands) == 0 {
		return &core.Solution{}, nil
	}
	budget := opt.budget()
	defer func() { opt.record(budget) }()
	caps := uniformCaps(in)
	if ok, _ := referenceMultipleFeasible(in, caps, cands, &budget); !ok {
		if budget <= 0 {
			return nil, ErrBudget
		}
		return nil, fmt.Errorf("exact: Multiple instance is infeasible")
	}
	lb := core.LowerBound(in)
	if lb < 1 {
		lb = 1
	}
	for k := lb; k <= len(cands); k++ {
		chosen := make([]tree.NodeID, 0, k)
		found, err := referenceChooseK(in, caps, cands, chosen, 0, k, &budget)
		if err != nil {
			return nil, err
		}
		if found != nil {
			sol, err := referenceAssignment(in.Tree, in.DMax, caps, found)
			if err != nil {
				return nil, err
			}
			if err := core.Verify(in, core.Multiple, sol); err != nil {
				return nil, fmt.Errorf("exact: multiple solver produced infeasible solution: %w", err)
			}
			return sol, nil
		}
	}
	return nil, fmt.Errorf("exact: no Multiple solution found (unreachable)")
}

func referenceChooseK(in *core.Instance, caps []int64, cands []tree.NodeID, chosen []tree.NodeID, from, k int, budget *int64) ([]tree.NodeID, error) {
	if *budget <= 0 {
		return nil, ErrBudget
	}
	if len(chosen) == k {
		ok, err := referenceMultipleFeasible(in, caps, chosen, budget)
		if err != nil {
			return nil, err
		}
		if ok {
			out := make([]tree.NodeID, k)
			copy(out, chosen)
			return out, nil
		}
		return nil, nil
	}
	if len(chosen)+(len(cands)-from) < k {
		return nil, nil
	}
	if len(chosen) > 0 {
		all := append(append([]tree.NodeID{}, chosen...), cands[from:]...)
		ok, err := referenceMultipleFeasible(in, caps, all, budget)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
	}
	for i := from; i < len(cands); i++ {
		res, err := referenceChooseK(in, caps, cands, append(chosen, cands[i]), i+1, k, budget)
		if err != nil || res != nil {
			return res, err
		}
	}
	return nil, nil
}

func referenceMultipleFeasible(in *core.Instance, caps []int64, R []tree.NodeID, budget *int64) (bool, error) {
	if *budget <= 0 {
		return false, ErrBudget
	}
	*budget -= int64(len(R)) + 1
	return referenceFeasible(in.Tree, in.DMax, caps, R), nil
}

// referenceSolveSingle is the first SolveSingle, a branch-and-bound
// over maps.
func referenceSolveSingle(in *core.Instance, opt Options) (*core.Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if !in.Feasible(core.Single) {
		return nil, fmt.Errorf("exact: some client exceeds W=%d; Single has no solution", in.W)
	}
	clients, elig := referenceEligible(in.Tree, in.DMax)
	if len(clients) == 0 {
		return &core.Solution{}, nil
	}
	sort.Slice(clients, func(a, b int) bool {
		ra, rb := in.Tree.Requests(clients[a]), in.Tree.Requests(clients[b])
		if ra != rb {
			return ra > rb
		}
		return clients[a] < clients[b]
	})
	s := &refSingleSearch{
		in:      in,
		clients: clients,
		elig:    elig,
		resid:   make(map[tree.NodeID]int64),
		assign:  make(map[tree.NodeID]tree.NodeID, len(clients)),
		budget:  opt.budget(),
	}
	s.remaining = make([]int64, len(clients)+1)
	for k := len(clients) - 1; k >= 0; k-- {
		s.remaining[k] = s.remaining[k+1] + in.Tree.Requests(clients[k])
	}
	s.best = len(clients) + 1
	s.dfs(0)
	opt.record(s.budget)
	if s.budget <= 0 {
		return nil, ErrBudget
	}
	if s.bestAssign == nil {
		return nil, fmt.Errorf("exact: no Single solution found")
	}
	sol := &core.Solution{}
	for c, srv := range s.bestAssign {
		sol.AddReplica(srv)
		sol.Assign(c, srv, in.Tree.Requests(c))
	}
	sol.Normalize()
	if err := core.Verify(in, core.Single, sol); err != nil {
		return nil, fmt.Errorf("exact: single solver produced infeasible solution: %w", err)
	}
	return sol, nil
}

type refSingleSearch struct {
	in         *core.Instance
	clients    []tree.NodeID
	elig       map[tree.NodeID][]tree.NodeID
	resid      map[tree.NodeID]int64
	assign     map[tree.NodeID]tree.NodeID
	remaining  []int64
	best       int
	bestAssign map[tree.NodeID]tree.NodeID
	budget     int64
}

func (s *refSingleSearch) dfs(k int) {
	if s.budget <= 0 {
		return
	}
	s.budget--
	open := len(s.resid)
	if open >= s.best {
		return
	}
	if k == len(s.clients) {
		s.best = open
		s.bestAssign = make(map[tree.NodeID]tree.NodeID, len(s.assign))
		for c, srv := range s.assign {
			s.bestAssign[c] = srv
		}
		return
	}
	var residTotal int64
	for _, r := range s.resid {
		residTotal += r
	}
	if over := s.remaining[k] - residTotal; over > 0 {
		extra := int(core.CeilDiv(over, s.in.W))
		if open+extra >= s.best {
			return
		}
	}
	c := s.clients[k]
	r := s.in.Tree.Requests(c)
	for _, srv := range s.elig[c] {
		res, isOpen := s.resid[srv]
		if !isOpen || res < r {
			continue
		}
		s.resid[srv] = res - r
		s.assign[c] = srv
		s.dfs(k + 1)
		s.resid[srv] = res
		delete(s.assign, c)
	}
	if open+1 >= s.best {
		return
	}
	for _, srv := range s.elig[c] {
		if _, isOpen := s.resid[srv]; isOpen {
			continue
		}
		s.resid[srv] = s.in.W - r
		s.assign[c] = srv
		s.dfs(k + 1)
		delete(s.resid, srv)
		delete(s.assign, c)
	}
}
