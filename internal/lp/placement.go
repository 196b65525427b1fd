package lp

import (
	"fmt"
	"math"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// FractionalReplicas solves the LP relaxation of the Multiple-policy
// placement problem:
//
//	min  Σ_s y_s
//	s.t. Σ_{s ∈ elig(i)} x_{i,s} = r_i           (every client served)
//	     Σ_i x_{i,s} − W·y_s ≤ 0                 (capacity activation)
//	     y_s ≤ 1,  x, y ≥ 0
//
// The integer optimum buys whole replicas, so ⌈LP⌉ is a valid lower
// bound for Multiple (and hence for Single, whose optimum is never
// smaller). Returns the fractional objective.
func FractionalReplicas(in *core.Instance) (float64, error) {
	p, _, _, err := buildPlacement(in)
	if err != nil || p == nil {
		return 0, err
	}
	_, obj, err := Solve(p)
	if err != nil {
		return 0, fmt.Errorf("lp: placement relaxation: %w", err)
	}
	return obj, nil
}

// buildPlacement constructs the placement relaxation. It returns the
// problem, the candidate servers in variable order, and nx, the number
// of x (assignment-arc) variables preceding the y (server-activation)
// block. A nil problem means the instance has no requests.
func buildPlacement(in *core.Instance) (p *Problem, servers []tree.NodeID, nx int, err error) {
	if err := in.Validate(); err != nil {
		return nil, nil, 0, err
	}
	t := in.Tree

	// Index clients and candidate servers.
	var clients []tree.NodeID
	elig := make(map[tree.NodeID][]tree.NodeID)
	serverIdx := make(map[tree.NodeID]int)
	for _, c := range t.Clients() {
		if t.Requests(c) == 0 {
			continue
		}
		clients = append(clients, c)
		for _, s := range t.EligibleServers(c, in.DMax) {
			elig[c] = append(elig[c], s)
			if _, ok := serverIdx[s]; !ok {
				serverIdx[s] = len(servers)
				servers = append(servers, s)
			}
		}
	}
	if len(clients) == 0 {
		return nil, nil, 0, nil
	}

	// Variable layout: x arcs first, then y per server. Client ci's
	// arcs are consecutive, in the order of elig[c]; srvArcs lists each
	// server's arcs in increasing order.
	srvArcs := make([][]int, len(servers))
	for _, c := range clients {
		for _, s := range elig[c] {
			si := serverIdx[s]
			srvArcs[si] = append(srvArcs[si], nx)
			nx++
		}
	}
	ny := len(servers)
	n := nx + ny

	m := len(clients) + 2*ny
	nnz := 2*nx + 2*ny
	p = &Problem{
		C:     make([]float64, n),
		Start: append(make([]int, 0, m+1), 0),
		Col:   make([]int, 0, nnz),
		Val:   make([]float64, 0, nnz),
		B:     make([]float64, 0, m),
		Kind:  make([]RowKind, 0, m),
	}
	for k := 0; k < ny; k++ {
		p.C[nx+k] = 1
	}
	// Coverage rows.
	k := 0
	for _, c := range clients {
		for range elig[c] {
			p.Col = append(p.Col, k)
			p.Val = append(p.Val, 1)
			k++
		}
		p.endRow(float64(t.Requests(c)), EQ)
	}
	// Capacity rows.
	for si, arcs := range srvArcs {
		for _, k := range arcs {
			p.Col = append(p.Col, k)
			p.Val = append(p.Val, 1)
		}
		p.Col = append(p.Col, nx+si)
		p.Val = append(p.Val, -float64(in.W))
		p.endRow(0, LE)
	}
	// y ≤ 1 rows.
	for si := range servers {
		p.Col = append(p.Col, nx+si)
		p.Val = append(p.Val, 1)
		p.endRow(1, LE)
	}
	return p, servers, nx, nil
}

// LowerBound returns ⌈FractionalReplicas⌉, a valid lower bound on the
// optimal replica count under either policy (0 on instances with no
// requests). An infeasible LP means the instance itself is infeasible
// under Multiple.
func LowerBound(in *core.Instance) (int, error) {
	obj, err := FractionalReplicas(in)
	if err != nil {
		return 0, err
	}
	return int(math.Ceil(obj - 1e-7)), nil
}
