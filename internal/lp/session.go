package lp

import (
	"fmt"
	"slices"
	"sync"

	"replicatree/internal/core"
	"replicatree/internal/flow"
	"replicatree/internal/tree"
)

// Session is the package's LP-rounding solver. Reset ingests an
// instance once — building the placement relaxation and the
// client/eligible-server CSR is allowed to allocate there — and
// Placement then re-solves with zero heap allocations: the simplex
// runs in a Workspace borrowed from the package's pool until Release,
// the support/prune buffers are reused, and the max-flow feasibility
// oracle rebuilds its network inside a recycled flow.Network.
//
// The rounding oracle in reference_test.go pins Placement's answers.
// The two non-obvious equivalences with it: the support sort uses the
// strict total order (y, server), so the oracle's unstable sort and
// the session's sort agree; and the flow network rebuild lays out each
// node's adjacency exactly as exact.buildFlow does (per server, the
// sink arc is pushed last and therefore scanned first), while BFS
// levels are insertion-order independent, so Dinic routes identical
// arc flows. The returned *core.Solution is owned by the session and
// valid until the next solve. A Session is not safe for concurrent
// use.
type Session struct {
	in *core.Instance

	// Ingest products.
	prob      *Problem
	servers   []tree.NodeID
	nx        int
	empty     bool          // instance has no requests
	clients   []tree.NodeID // clients with r > 0, increasing ID
	reqs      []int64       // per clients index
	eligStart []int32       // CSR over clients into eligSrv
	eligSrv   []tree.NodeID // eligible servers, path order (client first)

	// Per-solve working memory. The simplex workspace is borrowed from
	// workspacePool on the first solve and kept until Release.
	ws         *Workspace
	support    []frac
	R, trial   []tree.NodeID
	serverNode []int32 // node-indexed flow node of a server, -1 absent
	rdedup     []tree.NodeID
	net        flow.Network
	arcs       []sessArc
	caps       []int64
	sol        core.Solution
}

type frac struct {
	s tree.NodeID
	y float64
}

type sessArc struct {
	client, server tree.NodeID
	arc            int
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

// Release returns the session's simplex workspace to the package
// pool. The session stays usable; its next solve borrows again. A
// session dropped without Release leaves its workspace to the GC.
func (s *Session) Release() {
	if s.ws != nil {
		putWorkspace(s.ws)
		s.ws = nil
	}
}

// Reset ingests the instance: it builds the LP relaxation and the
// eligibility CSR. Unlike the per-solve path it may allocate. The
// instance must be valid (buildPlacement re-validates and returns the
// validation error).
func (s *Session) Reset(in *core.Instance) error {
	p, servers, nx, err := buildPlacement(in)
	if err != nil {
		return err
	}
	s.in = in
	f := in.Tree
	s.prob = p
	s.servers = servers
	s.nx = nx
	s.empty = p == nil

	s.clients = s.clients[:0]
	s.reqs = s.reqs[:0]
	s.eligStart = s.eligStart[:0]
	s.eligSrv = s.eligSrv[:0]
	n := f.Len()
	for j := 0; j < n; j++ {
		id := tree.NodeID(j)
		if !f.IsClient(id) || f.Reqs[j] == 0 {
			continue
		}
		s.clients = append(s.clients, id)
		s.reqs = append(s.reqs, f.Reqs[j])
		s.eligStart = append(s.eligStart, int32(len(s.eligSrv)))
		var d int64
		v := id
		for {
			if d > in.DMax {
				break
			}
			s.eligSrv = append(s.eligSrv, v)
			if v == f.Root() {
				break
			}
			d = tree.SatAdd(d, f.EdgeLens[v])
			v = f.Parents[v]
		}
	}
	s.eligStart = append(s.eligStart, int32(len(s.eligSrv)))

	if cap(s.serverNode) < n {
		s.serverNode = make([]int32, n)
	}
	s.serverNode = s.serverNode[:n]
	for i := range s.serverNode {
		s.serverNode[i] = -1
	}
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
// This is the swappable relaxation-based solver motivated by the
// ℓp-Box ADMM line of work: exact and LP-guided solvers answer the
// same contract, so consumers can trade optimality for speed by name.
func (s *Session) Placement() (*core.Solution, error) {
	const eps = 1e-7
	s.sol.Replicas = s.sol.Replicas[:0]
	s.sol.Assignments = s.sol.Assignments[:0]
	if s.empty {
		s.sol.Normalize()
		return &s.sol, nil
	}
	if s.ws == nil {
		s.ws = getWorkspace()
	}
	x, _, err := s.ws.Solve(s.prob)
	if err != nil {
		return nil, fmt.Errorf("lp: placement relaxation: %w", err)
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
	if !s.feasible(s.R) {
		// Numerically truncated support: fall back to every candidate
		// server and let pruning shrink it.
		s.R = append(s.R[:0], s.servers...)
		if !s.feasible(s.R) {
			return nil, fmt.Errorf("lp: instance infeasible under the Multiple policy")
		}
	}
	for i := 0; i < len(s.R); {
		s.trial = append(s.trial[:0], s.R[:i]...)
		s.trial = append(s.trial, s.R[i+1:]...)
		if s.feasible(s.trial) {
			s.R = append(s.R[:0], s.trial...)
		} else {
			i++
		}
	}
	return s.assignment()
}

// buildFlow rebuilds the transportation network of exact.buildFlow
// for replica set R inside the session's recycled network: node 0 =
// source, 1 = sink, clients at 2.., then the distinct servers of R in
// first-occurrence order.
func (s *Session) buildFlow(R []tree.NodeID) (total int64) {
	nc := len(s.clients)
	s.rdedup = s.rdedup[:0]
	for _, srv := range R {
		if s.serverNode[srv] < 0 {
			s.serverNode[srv] = int32(2 + nc + len(s.rdedup))
			s.rdedup = append(s.rdedup, srv)
		}
	}
	s.net.Reset(2 + nc + len(s.rdedup))
	s.arcs = s.arcs[:0]
	s.caps = s.caps[:0]
	for ci, c := range s.clients {
		r := s.reqs[ci]
		total += r
		s.net.AddEdge(0, 2+ci, r)
		for k := s.eligStart[ci]; k < s.eligStart[ci+1]; k++ {
			srv := s.eligSrv[k]
			sn := s.serverNode[srv]
			if sn < 0 {
				continue
			}
			arc := s.net.AddEdge(2+ci, int(sn), r)
			s.arcs = append(s.arcs, sessArc{client: c, server: srv, arc: arc})
			s.caps = append(s.caps, r)
		}
	}
	for _, srv := range s.rdedup {
		s.net.AddEdge(int(s.serverNode[srv]), 1, s.in.W)
	}
	return total
}

// clearServerNodes undoes the buildFlow marking.
func (s *Session) clearServerNodes() {
	for _, srv := range s.rdedup {
		s.serverNode[srv] = -1
	}
}

// feasible is the warm exact.MultipleFeasible: can R serve all
// requests under the Multiple policy?
func (s *Session) feasible(R []tree.NodeID) bool {
	total := s.buildFlow(R)
	defer s.clearServerNodes()
	if total == 0 {
		return true
	}
	return s.net.MaxFlow(0, 1) == total
}

// assignment is the warm exact.MultipleAssignment on s.R.
func (s *Session) assignment() (*core.Solution, error) {
	total := s.buildFlow(s.R)
	defer s.clearServerNodes()
	if got := s.net.MaxFlow(0, 1); got != total {
		return nil, fmt.Errorf("lp: assignment on rounded support: %w",
			fmt.Errorf("exact: replica set %v infeasible (flow %d of %d)", s.R, got, total))
	}
	for _, r := range s.R {
		s.sol.AddReplica(r)
	}
	for i, a := range s.arcs {
		if amt := s.net.Flow(a.arc, s.caps[i]); amt > 0 {
			s.sol.Assign(a.client, a.server, amt)
		}
	}
	s.sol.Normalize()
	return &s.sol, nil
}
