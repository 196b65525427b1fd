package hetero

import (
	"fmt"
	"sort"

	"replicatree/internal/core"
	"replicatree/internal/flow"
	"replicatree/internal/tree"
)

// This file keeps the package's first bodies as test oracles: a
// map-based max-flow network per feasibility test, the greedy with its
// restarting prune, and the replica-set and Single searches that
// copied exact's with per-node capacities. The package functions, now
// front ends of exact's oracle and searches, must return the same
// solutions and the same error classes.

// referenceEligible returns clients with requests and their candidate servers
// (positive capacity, on path, within dmax).
func referenceEligible(in *Instance) (clients []tree.NodeID, elig map[tree.NodeID][]tree.NodeID) {
	t := in.Tree
	elig = make(map[tree.NodeID][]tree.NodeID)
	for _, c := range t.Clients() {
		if t.Requests(c) == 0 {
			continue
		}
		clients = append(clients, c)
		for _, s := range t.EligibleServers(c, in.DMax) {
			if in.Cap[s] > 0 {
				elig[c] = append(elig[c], s)
			}
		}
	}
	return clients, elig
}

// referenceFeasible reports whether replica set R can serve all requests, via
// max-flow with per-node capacities. It optionally returns the
// recovered assignment.
func referenceFeasible(in *Instance, R []tree.NodeID, recover bool) (*core.Solution, bool) {
	t := in.Tree
	clients, elig := referenceEligible(in)
	rIdx := make(map[tree.NodeID]int, len(R))
	idx := 2
	cIdx := make(map[tree.NodeID]int, len(clients))
	for _, c := range clients {
		cIdx[c] = idx
		idx++
	}
	for _, s := range R {
		if _, dup := rIdx[s]; !dup {
			rIdx[s] = idx
			idx++
		}
	}
	g := flow.NewNetwork(idx)
	var total int64
	type arcRec struct {
		client, server tree.NodeID
		arc            int
		cap            int64
	}
	var arcs []arcRec
	for _, c := range clients {
		r := t.Requests(c)
		total += r
		g.AddEdge(0, cIdx[c], r)
		for _, s := range elig[c] {
			if si, ok := rIdx[s]; ok {
				a := g.AddEdge(cIdx[c], si, r)
				if recover {
					arcs = append(arcs, arcRec{c, s, a, r})
				}
			}
		}
	}
	for s, si := range rIdx {
		g.AddEdge(si, 1, in.Cap[s])
	}
	if g.MaxFlow(0, 1) != total {
		return nil, false
	}
	if !recover {
		return nil, true
	}
	sol := &core.Solution{}
	for _, s := range R {
		sol.AddReplica(s)
	}
	for _, a := range arcs {
		if amt := g.Flow(a.arc, a.cap); amt > 0 {
			sol.Assign(a.client, a.server, amt)
		}
	}
	sol.Normalize()
	return sol, true
}

// referenceCandidates lists nodes with positive capacity that can serve at
// least one request, sorted by decreasing capacity then coverage.
func referenceCandidates(in *Instance) []tree.NodeID {
	t := in.Tree
	cover := make(map[tree.NodeID]int64)
	_, elig := referenceEligible(in)
	for c, servers := range elig {
		for _, s := range servers {
			cover[s] += t.Requests(c)
		}
	}
	out := make([]tree.NodeID, 0, len(cover))
	for s := range cover {
		out = append(out, s)
	}
	sort.Slice(out, func(a, b int) bool {
		ca, cb := in.Cap[out[a]], in.Cap[out[b]]
		if ca != cb {
			return ca > cb
		}
		if cover[out[a]] != cover[out[b]] {
			return cover[out[a]] > cover[out[b]]
		}
		return out[a] < out[b]
	})
	return out
}

// referenceGreedy places replicas with a coverage-driven greedy plus a pruning
// local search:
//
//  1. while the current set is infeasible, add the candidate that
//     maximises newly-servable demand (capacity bounded by what its
//     eligible clients still need);
//  2. then repeatedly try to drop a replica (smallest capacity first)
//     while the set stays feasible.
//
// Runs in polynomial time; the result is feasible whenever the full
// candidate set is, and experiments measure its gap to the exact
// optimum.
func referenceGreedy(in *Instance) (*core.Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	cands := referenceCandidates(in)
	if sol, ok := referenceFeasible(in, nil, true); ok {
		return sol, nil // no requests at all
	}
	if _, ok := referenceFeasible(in, cands, false); !ok {
		return nil, fmt.Errorf("hetero: instance infeasible even with all candidates")
	}

	t := in.Tree
	_, elig := referenceEligible(in)
	// demandVia[s]: total demand of clients that can use s.
	demandVia := make(map[tree.NodeID]int64)
	for c, servers := range elig {
		for _, s := range servers {
			demandVia[s] += t.Requests(c)
		}
	}

	var chosen []tree.NodeID
	inSet := make(map[tree.NodeID]bool)
	for {
		if _, ok := referenceFeasible(in, chosen, false); ok {
			break
		}
		// Pick the unchosen candidate with the largest marginal
		// usefulness: min(capacity, demand routed via it).
		best := tree.None
		var bestScore int64 = -1
		for _, s := range cands {
			if inSet[s] {
				continue
			}
			score := demandVia[s]
			if in.Cap[s] < score {
				score = in.Cap[s]
			}
			if score > bestScore {
				best, bestScore = s, score
			}
		}
		if best == tree.None {
			return nil, fmt.Errorf("hetero: greedy exhausted candidates (unreachable)")
		}
		chosen = append(chosen, best)
		inSet[best] = true
	}

	// Local search: drop redundant replicas, smallest capacity first.
	for {
		dropped := false
		order := append([]tree.NodeID{}, chosen...)
		for i := len(order) - 1; i >= 0; i-- {
			trial := make([]tree.NodeID, 0, len(chosen)-1)
			for _, s := range chosen {
				if s != order[i] {
					trial = append(trial, s)
				}
			}
			if _, ok := referenceFeasible(in, trial, false); ok {
				chosen = trial
				dropped = true
				break
			}
		}
		if !dropped {
			break
		}
	}

	sol, ok := referenceFeasible(in, chosen, true)
	if !ok {
		return nil, fmt.Errorf("hetero: final set infeasible (unreachable)")
	}
	if err := in.Verify(sol); err != nil {
		return nil, fmt.Errorf("hetero: greedy produced infeasible solution: %w", err)
	}
	return sol, nil
}

// referenceSolve finds an optimal replica set by enumerating sets of increasing
// size with monotone pruning (the hetero analogue of
// exact.SolveMultiple). Exponential; small instances only.
func referenceSolve(in *Instance, budget int64) (*core.Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if budget <= 0 {
		budget = 20_000_000
	}
	cands := referenceCandidates(in)
	if sol, ok := referenceFeasible(in, nil, true); ok {
		return sol, nil
	}
	if _, ok := referenceFeasible(in, cands, false); !ok {
		return nil, fmt.Errorf("hetero: instance infeasible")
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
	for k := lb; k <= len(cands); k++ {
		if budget <= 0 {
			return nil, fmt.Errorf("hetero: work budget exceeded")
		}
		if set := referenceChooseK(in, cands, nil, 0, k, &budget); set != nil {
			sol, ok := referenceFeasible(in, set, true)
			if !ok {
				return nil, fmt.Errorf("hetero: chosen set infeasible (unreachable)")
			}
			if err := in.Verify(sol); err != nil {
				return nil, err
			}
			return sol, nil
		}
	}
	return nil, fmt.Errorf("hetero: no solution found (unreachable)")
}

func referenceChooseK(in *Instance, cands, chosen []tree.NodeID, from, k int, budget *int64) []tree.NodeID {
	if *budget <= 0 {
		return nil
	}
	*budget--
	if len(chosen) == k {
		if _, ok := referenceFeasible(in, chosen, false); ok {
			out := make([]tree.NodeID, k)
			copy(out, chosen)
			return out
		}
		return nil
	}
	if len(chosen)+(len(cands)-from) < k {
		return nil
	}
	if len(chosen) > 0 {
		all := append(append([]tree.NodeID{}, chosen...), cands[from:]...)
		if _, ok := referenceFeasible(in, all, false); !ok {
			return nil
		}
	}
	for i := from; i < len(cands); i++ {
		if set := referenceChooseK(in, cands, append(chosen, cands[i]), i+1, k, budget); set != nil {
			return set
		}
	}
	return nil
}

// referenceSolveSingle finds an optimal Single-policy placement under
// heterogeneous capacities: every client's whole bundle goes to one
// replica whose capacity covers the sum of its assigned bundles.
// Branch-and-bound over client assignments, mirroring
// exact.SolveSingle with per-node capacities. Exponential; small
// instances only.
func referenceSolveSingle(in *Instance, budget int64) (*core.Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if budget <= 0 {
		budget = 20_000_000
	}
	clients, elig := referenceEligible(in)
	t := in.Tree
	// Single feasibility needs ri ≤ Cap[s] for some eligible s.
	for _, c := range clients {
		ok := false
		for _, s := range elig[c] {
			if in.Cap[s] >= t.Requests(c) {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("hetero: client %d (r=%d) fits no eligible node", c, t.Requests(c))
		}
	}
	if len(clients) == 0 {
		return &core.Solution{}, nil
	}
	sort.Slice(clients, func(a, b int) bool {
		ra, rb := t.Requests(clients[a]), t.Requests(clients[b])
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
		best:    len(clients) + 1,
		budget:  budget,
	}
	// Largest capacities, for the optimistic bound.
	caps := append([]int64{}, in.Cap...)
	sort.Slice(caps, func(a, b int) bool { return caps[a] > caps[b] })
	s.sortedCaps = caps
	s.remaining = make([]int64, len(clients)+1)
	for k := len(clients) - 1; k >= 0; k-- {
		s.remaining[k] = s.remaining[k+1] + t.Requests(clients[k])
	}
	s.dfs(0)
	if s.budget <= 0 {
		return nil, fmt.Errorf("hetero: work budget exceeded")
	}
	if s.bestAssign == nil {
		return nil, fmt.Errorf("hetero: no Single solution found")
	}
	sol := &core.Solution{}
	for c, srv := range s.bestAssign {
		sol.AddReplica(srv)
		sol.Assign(c, srv, t.Requests(c))
	}
	sol.Normalize()
	if err := in.Verify(sol); err != nil {
		return nil, fmt.Errorf("hetero: single solver produced infeasible solution: %w", err)
	}
	return sol, nil
}

type refSingleSearch struct {
	in         *Instance
	clients    []tree.NodeID
	elig       map[tree.NodeID][]tree.NodeID
	resid      map[tree.NodeID]int64
	assign     map[tree.NodeID]tree.NodeID
	remaining  []int64
	sortedCaps []int64
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
	// Optimistic bound: residual capacity of open replicas plus the
	// largest unopened capacities.
	var residTotal int64
	for _, r := range s.resid {
		residTotal += r
	}
	if over := s.remaining[k] - residTotal; over > 0 {
		extra := 0
		for _, c := range s.sortedCaps {
			if over <= 0 || c <= 0 {
				break
			}
			over -= c
			extra++
		}
		if over > 0 || open+extra >= s.best {
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
		if _, isOpen := s.resid[srv]; isOpen || s.in.Cap[srv] < r {
			continue
		}
		s.resid[srv] = s.in.Cap[srv] - r
		s.assign[c] = srv
		s.dfs(k + 1)
		delete(s.resid, srv)
		delete(s.assign, c)
	}
}
