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
// the support/prune buffers are reused, and the max-flow networks of
// pruning and assignment are built inside a recycled flow.Network.
//
// The rounding oracle in reference_test.go pins Placement's answers.
// The three non-obvious equivalences with it: the support sort uses
// the strict total order (y, server), so the oracle's unstable sort
// and the session's sort agree; pruning edits one routed flow where
// the oracle builds a network per test, and the max-flow value, the
// only thing a verdict reads, is unique; and the assignment network
// lays out each node's adjacency exactly as exact.buildFlow does (per
// server, the sink arc is pushed last and therefore scanned first),
// while BFS levels are insertion-order independent, so Dinic routes
// identical arc flows. The returned *core.Solution is owned by the session and
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
	R          []tree.NodeID
	serverNode []int32 // node-indexed flow node of a server, -1 absent
	rdedup     []tree.NodeID
	net        flow.Network
	arcs       []sessArc
	caps       []int64
	srcArcs    []int   // per clients index: its source arc
	sinkArcs   []int   // per rdedup index: the server's sink arc
	byServer   []int32 // per rdedup index: where its arcs start in serverArcs
	serverArcs []int32 // indices into arcs, grouped by server
	saved      []int64 // residuals saved across a drop test
	sol        core.Solution
}

type frac struct {
	s tree.NodeID
	y float64
}

// sessArc is a client→server edge of the flow network; ci indexes
// clients.
type sessArc struct {
	ci     int32
	server tree.NodeID
	arc    int
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
	s.in, s.prob = nil, nil
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
	s.rdedup = s.rdedup[:0]
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
// Pruning routes one maximum flow for the starting set and then edits
// it: drop takes one server out of the routed flow and lets Dinic
// re-route what it carried, so each test costs the flow it moves, not
// a fresh network and max-flow. The max-flow value is unique, so each
// verdict is the one a fresh feasibility test gives.
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
	if !s.route(s.R) {
		// Numerically truncated support: fall back to every candidate
		// server and let pruning shrink it.
		s.R = append(s.R[:0], s.servers...)
		if !s.route(s.R) {
			s.clearServerNodes()
			return nil, fmt.Errorf("lp: instance infeasible under the Multiple policy")
		}
	}
	for i := 0; i < len(s.R); {
		if s.drop(s.R[i]) {
			s.R = slices.Delete(s.R, i, i+1)
		} else {
			i++
		}
	}
	s.clearServerNodes()
	return s.assignment()
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

// buildFlow rebuilds the transportation network of exact.buildFlow
// for replica set R inside the session's recycled network: node 0 =
// source, 1 = sink, clients at 2.., then the distinct servers of R in
// first-occurrence order. It leaves the servers of R marked in
// serverNode; clearServerNodes undoes that.
func (s *Session) buildFlow(R []tree.NodeID) (total int64) {
	s.clearServerNodes()
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
	s.srcArcs = s.srcArcs[:0]
	for ci := range s.clients {
		r := s.reqs[ci]
		total += r
		s.srcArcs = append(s.srcArcs, s.net.AddEdge(0, 2+ci, r))
		for k := s.eligStart[ci]; k < s.eligStart[ci+1]; k++ {
			srv := s.eligSrv[k]
			sn := s.serverNode[srv]
			if sn < 0 {
				continue
			}
			arc := s.net.AddEdge(2+ci, int(sn), r)
			s.arcs = append(s.arcs, sessArc{ci: int32(ci), server: srv, arc: arc})
			s.caps = append(s.caps, r)
		}
	}
	s.sinkArcs = s.sinkArcs[:0]
	for _, srv := range s.rdedup {
		s.sinkArcs = append(s.sinkArcs, s.net.AddEdge(int(s.serverNode[srv]), 1, s.in.W))
	}
	return total
}

// clearServerNodes undoes the buildFlow marking.
func (s *Session) clearServerNodes() {
	for _, srv := range s.rdedup {
		s.serverNode[srv] = -1
	}
	s.rdedup = s.rdedup[:0]
}

// route builds the network for R, routes a maximum flow on it and
// reports whether R can serve all requests under the Multiple policy
// (the warm exact.MultipleFeasible). It also groups the client arcs by
// server, in arc order, for drop.
func (s *Session) route(R []tree.NodeID) bool {
	total := s.buildFlow(R)
	nc := len(s.clients)
	s.byServer = growInt32(s.byServer, len(s.rdedup)+1)
	clear(s.byServer)
	for _, a := range s.arcs {
		s.byServer[int(s.serverNode[a.server])-2-nc+1]++
	}
	for q := 1; q < len(s.byServer); q++ {
		s.byServer[q] += s.byServer[q-1]
	}
	s.serverArcs = growInt32(s.serverArcs, len(s.arcs))
	for k, a := range s.arcs {
		q := int(s.serverNode[a.server]) - 2 - nc
		s.serverArcs[s.byServer[q]] = int32(k)
		s.byServer[q]++
	}
	// byServer[q] is now where server q's arcs end; shift it back to
	// where they start.
	copy(s.byServer[1:], s.byServer[:len(s.byServer)-1])
	s.byServer[0] = 0
	return s.net.MaxFlow(0, 1) == total
}

// drop tests whether the routed set stays feasible without server srv,
// given that the flow routed now serves every request. It takes srv's
// edges out of the flow, hands each client's flow through srv back to
// the client's source arc and re-runs Dinic from there: srv can go iff
// the re-run routes again everything srv carried. If so srv stays out
// and the flow serves every request again; if not the flow is put back.
func (s *Session) drop(srv tree.NodeID) bool {
	q := int(s.serverNode[srv]) - 2 - len(s.clients)
	sink := s.sinkArcs[q]
	lost := s.net.Flow(sink, s.in.W)
	arcs := s.serverArcs[s.byServer[q]:s.byServer[q+1]]
	if lost > 0 {
		s.saved = s.net.SaveResiduals(s.saved)
	}
	for _, k := range arcs {
		a := s.arcs[k]
		if f := s.net.Flow(a.arc, s.caps[k]); f > 0 {
			src, r := s.srcArcs[a.ci], s.reqs[a.ci]
			s.net.SetFlow(src, r, s.net.Flow(src, r)-f)
		}
		s.net.SetFlow(a.arc, 0, 0)
	}
	s.net.SetFlow(sink, 0, 0)
	if lost == 0 || s.net.MaxFlow(0, 1) == lost {
		return true
	}
	s.net.RestoreResiduals(s.saved)
	return false
}

// assignment is the warm exact.MultipleAssignment on s.R.
func (s *Session) assignment() (*core.Solution, error) {
	total := s.buildFlow(s.R)
	defer s.clearServerNodes()
	if got := s.net.MaxFlow(0, 1); got != total {
		return nil, fmt.Errorf("lp: assignment on rounded support: %w",
			fmt.Errorf("exact: replica set %v infeasible (flow %d of %d)", s.R, got, total))
	}
	// R is distinct: append without AddReplica's scan.
	s.sol.Replicas = append(s.sol.Replicas, s.R...)
	for i, a := range s.arcs {
		if amt := s.net.Flow(a.arc, s.caps[i]); amt > 0 {
			s.sol.Assign(s.clients[a.ci], a.server, amt)
		}
	}
	s.sol.Normalize()
	return &s.sol, nil
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
