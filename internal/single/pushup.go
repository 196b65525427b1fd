package single

import (
	"cmp"
	"slices"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// PushUp is the post-pass the paper's conclusion sketches for closing
// the gap towards 3/2 on Single-NoD-Bin: "push servers towards the
// root of the tree, whenever possible". Given a feasible Single
// solution, it repeatedly dissolves a server whose entire load fits
// into the residual capacity of one of its ancestor servers (moving
// whole clients upward is always distance-safe under NoD, and checked
// against dmax otherwise), until no such move exists. The result never
// has more replicas than the input.
func PushUp(in *core.Instance, sol *core.Solution) *core.Solution {
	out := sol.Clone()
	var s Session
	s.Reset(in)
	s.pushUp(out)
	return out
}

// PushUp runs Algorithm 2 followed by the push-up post-pass.
func (s *Session) PushUp() (*core.Solution, error) {
	sol, err := s.nod(&s.sol)
	if err != nil {
		return nil, err
	}
	s.pushUp(sol)
	return sol, nil
}

// pushTables is push-up's working memory, indexed by NodeID.
type pushTables struct {
	depth   []int32
	loads   []int64
	far     []int64       // a server's farthest client (dmax only)
	to      []tree.NodeID // a server's own ID, where it moved, or None
	servers []tree.NodeID
}

// pushUp moves servers in place, then normalizes sol, which must be
// feasible for the bound instance. It visits the servers once, deepest
// first and then by ID, and moves each to its nearest ancestor server
// that can take its load and keep its clients within dmax. Visiting
// them once is the same as rescanning from the deepest after every
// move: a move only removes a replica and raises the load of an
// ancestor (which comes later in the order), so every server before
// the moved one stays unmovable, and the rescan resumes after it.
func (s *Session) pushUp(sol *core.Solution) {
	in, f, p := s.in, s.in.Tree, &s.push
	n := f.Len()
	p.depth, p.loads, p.far, p.to = grow(p.depth, n), grow(p.loads, n), grow(p.far, n), grow(p.to, n)
	p.depth[f.Root()] = 0
	for _, j := range f.Pre[1:] {
		p.depth[j] = p.depth[f.Parents[j]] + 1
	}
	clear(p.loads)
	clear(p.far)
	for i := range p.to {
		p.to[i] = tree.None
	}
	for _, r := range sol.Replicas {
		p.to[r] = r
	}
	for _, a := range sol.Assignments {
		p.loads[a.Server] += a.Amount
		if in.DMax != core.NoDistance {
			p.far[a.Server] = max(p.far[a.Server], f.DistanceUp(a.Client, a.Server))
		}
	}
	servers := append(p.servers[:0], sol.Replicas...)
	slices.SortFunc(servers, func(a, b tree.NodeID) int {
		if c := cmp.Compare(p.depth[b], p.depth[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for _, x := range servers {
		var d int64 // distance from x up to a
		for a := x; a != f.Root(); {
			d = tree.SatAdd(d, f.EdgeLens[a])
			a = f.Parents[a]
			far := tree.SatAdd(p.far[x], d)
			if far > in.DMax {
				break // every further ancestor is farther still
			}
			if p.to[a] == a && p.loads[a]+p.loads[x] <= in.W {
				p.to[x] = a
				p.loads[a] += p.loads[x]
				p.far[a] = max(p.far[a], far)
				break
			}
		}
	}
	// A server moves only to a later one in the order, so walking the
	// order backwards resolves chains of moves to their final server.
	for i := len(servers) - 1; i >= 0; i-- {
		x := servers[i]
		p.to[x] = p.to[p.to[x]]
	}
	p.servers = servers
	for i := range sol.Assignments {
		sol.Assignments[i].Server = p.to[sol.Assignments[i].Server]
	}
	keep := sol.Replicas[:0]
	for _, r := range sol.Replicas {
		if p.to[r] == r {
			keep = append(keep, r)
		}
	}
	sol.Replicas = keep
	sol.Normalize()
}
