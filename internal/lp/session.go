package lp

import (
	"fmt"
	"slices"
	"sync"

	"replicatree/internal/core"
	"replicatree/internal/exact"
	"replicatree/internal/tree"
)

// Session is the package's LP-rounding solver. Reset ingests an
// instance once — building the placement relaxation and binding the
// feasibility oracle is allowed to allocate there — and Placement then
// re-solves with zero heap allocations: the simplex runs in a Workspace
// borrowed from the package's pool until Release, the support buffers
// are reused, and pruning and assignment run on a warm exact.Transport.
//
// The rounding oracle in reference_test.go pins Placement's answers.
// The three non-obvious equivalences with it: the support sort uses
// the strict total order (y, server), so the oracle's unstable sort
// and the session's sort agree; pruning edits one routed flow
// (Transport.Drop) where the oracle builds a network per test, and the
// max-flow value, the only thing a verdict reads, is unique; and the
// assignment is exact.MultipleAssignment's own network on a recycled
// flow.Network. The returned *core.Solution is owned by the session
// and valid until the next solve. A Session is not safe for concurrent
// use.
type Session struct {
	// Ingest products.
	prob    *Problem
	servers []tree.NodeID
	nx      int
	empty   bool // instance has no requests

	// Per-solve working memory. The simplex workspace is borrowed from
	// workspacePool on the first solve and kept until Release.
	ws      *Workspace
	support []frac
	R       []tree.NodeID
	net     exact.Transport
	sol     core.Solution
}

type frac struct {
	s tree.NodeID
	y float64
}

// workspacePool holds the simplex workspaces of released sessions, so
// idle sessions (a pooled solver scratch, say) keep no tableau: there
// is at most one per session between its first solve and Release.
var workspacePool = sync.Pool{New: func() any { return new(Workspace) }}

// maxPooledTableau caps the tableau bytes a pooled workspace may keep.
// A larger one is dropped instead of pooled, so one big solve cannot
// pin its tableau in the pool (the solve-cold relaxation of ~210 nodes
// takes about 4.8 MB).
const maxPooledTableau = 16 << 20

func getWorkspace() *Workspace { return workspacePool.Get().(*Workspace) }

func putWorkspace(w *Workspace) {
	if cap(w.tabBuf)*8 > maxPooledTableau {
		return
	}
	workspacePool.Put(w)
}

// Release returns the session's simplex workspace to the package pool
// and drops the instance and its relaxation, so a kept session pins
// neither. Its grow-only buffers stay for the next instance, which
// must be bound with Reset first. A session dropped without Release
// leaves its workspace to the GC.
func (s *Session) Release() {
	if s.ws != nil {
		putWorkspace(s.ws)
		s.ws = nil
	}
	s.prob = nil
}

// Reset ingests the instance: it builds the LP relaxation and binds
// the feasibility oracle. Unlike the per-solve path it may allocate.
// The instance must be valid (buildPlacement re-validates and returns
// the validation error).
func (s *Session) Reset(in *core.Instance) error {
	p, servers, nx, err := buildPlacement(in)
	if err != nil {
		return err
	}
	s.prob = p
	s.servers = servers
	s.nx = nx
	s.empty = p == nil
	s.net.Reset(in)
	return nil
}

// Placement rounds the LP relaxation into a feasible Multiple-policy
// solution: solve the relaxation, open every server in the fractional
// support (y_s > eps), prune replicas greedily — least fractional
// first — while the set stays feasible, then recover an integral
// assignment by max-flow (flow integrality guarantees one exists
// whenever the fractional assignment does, because pruning re-checks
// feasibility at the full capacity W).
//
// Pruning routes one maximum flow for the starting set and then edits
// it: Transport.Drop takes one server out of the routed flow and lets
// Dinic re-route what it carried, so each test costs the flow it
// moves, not a fresh network and max-flow.
//
// This is the swappable relaxation-based solver motivated by the
// ℓp-Box ADMM line of work: exact and LP-guided solvers answer the
// same contract, so consumers can trade optimality for speed by name.
func (s *Session) Placement() (*core.Solution, error) {
	s.sol.Replicas = s.sol.Replicas[:0]
	s.sol.Assignments = s.sol.Assignments[:0]
	if s.empty {
		s.sol.Normalize()
		return &s.sol, nil
	}
	if err := s.relax(); err != nil {
		return nil, err
	}
	if !s.net.Route(s.R) {
		// Numerically truncated support: fall back to every candidate
		// server and let pruning shrink it.
		s.R = append(s.R[:0], s.servers...)
		if !s.net.Route(s.R) {
			return nil, fmt.Errorf("lp: instance infeasible under the Multiple policy")
		}
	}
	for i := 0; i < len(s.R); {
		if s.net.Drop(s.R[i]) {
			s.R = slices.Delete(s.R, i, i+1)
		} else {
			i++
		}
	}
	if err := s.net.Assign(&s.sol, s.R); err != nil {
		return nil, fmt.Errorf("lp: assignment on rounded support: %w", err)
	}
	return &s.sol, nil
}

// relax solves the relaxation and sets R to its support, least
// fractional first.
func (s *Session) relax() error {
	const eps = 1e-7
	if s.ws == nil {
		s.ws = getWorkspace()
	}
	x, _, err := s.ws.Solve(s.prob)
	if err != nil {
		return fmt.Errorf("lp: placement relaxation: %w", err)
	}
	s.support = s.support[:0]
	for si, srv := range s.servers {
		if x[s.nx+si] > eps {
			s.support = append(s.support, frac{srv, x[s.nx+si]})
		}
	}
	// Prune least-fractional replicas first; (y, server) is a strict
	// total order, so any correct sort yields the same order.
	slices.SortFunc(s.support, func(a, b frac) int {
		switch {
		case a.y < b.y:
			return -1
		case a.y > b.y:
			return 1
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		}
		return 0
	})
	s.R = s.R[:0]
	for _, fr := range s.support {
		s.R = append(s.R, fr.s)
	}
	return nil
}
