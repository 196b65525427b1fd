package single

import (
	"fmt"
	"slices"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// Algorithm 1 is a pure bottom-up function. The pending couple a node
// forwards to its parent (the client bundles still unserved plus their
// remaining distance budget) depends only on the requests and edge
// lengths strictly below the node; the node's own parent edge is
// consumed by the parent's visit. The replicas placed while visiting a
// node depend only on its children's pendings, W and dmax. So the
// session keeps every internal node's outgoing pending across solves,
// together with copies of the inputs it was computed from, and the next
// Gen diffs the bound instance against those copies: a changed request
// or edge length dirties the root path above it, and only dirty nodes
// are visited again, in postorder. No memo, a different shape, W or
// dmax makes every node dirty, which is the cold solve. The memo never
// trusts pointer identity or a caller's bookkeeping: it is exactly as
// valid as the copies it is checked against.
//
// Client bundles are chains linked through next, indexed by client ID:
// merging pendings splices chains in O(1), and a memoized chain
// survives across solves. A chain segment is always walked from its
// head to its tail, never to a sentinel, because a merge rewrites the
// link after a segment's tail. Interior links of a memoized segment are
// never rewritten: a merge writes only the link after the tail of a
// whole child chain, and a memoized segment sits contiguously inside
// every chain it feeds, so no enclosing chain ends strictly inside it.
//
// Placements need no per-node records either. A replica site is placed
// only by its parent's visit (the root also by its own), so a visit
// first clears the flags of the sites it owns. A client with r > 0 is
// served by whichever visit placed its chain last: either a dirty
// visit of this solve, or a clean visit whose inputs, and so whose
// placements, are unchanged. Clients with r = 0 are served by nobody
// and are skipped when the solution is built.

// genPending is one pending couple (req, dist) of Algorithm 1, its
// client bundles kept as the chain segment [head, tail].
type genPending struct {
	head, tail  tree.NodeID
	total, dist int64
}

// genMemo is Algorithm 1's state, kept across solves. Every table is
// indexed by NodeID and only grows.
type genMemo struct {
	// The inputs of the last successful Gen; the tables below are
	// valid for exactly these.
	parents  []tree.NodeID
	edgeLens []int64
	reqs     []int64
	w, dmax  int64
	valid    bool

	out       []genPending  // per internal node: the pending it forwards
	next      []tree.NodeID // per client: the next client of its chain
	serverOf  []tree.NodeID // per client with r > 0: its server
	isReplica []bool
	dirty     []bool       // false between solves
	kids      []genPending // one visit's child pendings
}

// Gen runs Algorithm 1 (single-gen): a feasible Single solution with
// at most (Δ+1)·opt replicas, and at most Δ·opt when dmax is
// core.NoDistance (Corollary 1). It refuses an instance with some
// rᵢ > W, which has no Single solution. Time complexity: O(Δ·|T|)
// list-merge operations (Theorem 3).
//
// It produces the same normalized solution as the recursive procedure
// single-gen(j): visiting the internal nodes in the stored postorder
// reaches every node after its children, and the placement decisions
// depend only on the (total, dist) values, never on event order. The
// solution is built by ascending ID scans, which yields the normalized
// form directly. A Gen refused for some rᵢ > W touches no memo state.
func (s *Session) Gen() (*core.Solution, error) {
	in, f := s.in, s.in.Tree
	if !in.FitsLocally() {
		return nil, fmt.Errorf("single: some client exceeds W=%d; Single has no solution", in.W)
	}
	g := &s.gen
	full := g.markDirty(in)
	for _, j := range f.Post {
		if g.dirty[j] || full && !f.IsClient(j) { // markDirty flags internal nodes only
			g.dirty[j] = false
			s.visit(j)
		}
	}
	s.sol.Replicas = s.sol.Replicas[:0]
	s.sol.Assignments = s.sol.Assignments[:0]
	for j, rep := range g.isReplica {
		if rep {
			s.sol.Replicas = append(s.sol.Replicas, tree.NodeID(j))
		}
	}
	for j, r := range f.Reqs {
		if r > 0 {
			s.sol.Assignments = append(s.sol.Assignments, core.Assignment{
				Client: tree.NodeID(j), Server: g.serverOf[j], Amount: r,
			})
		}
	}
	g.valid = true
	return &s.sol, nil
}

// markDirty compares the bound instance with the inputs of the last
// successful Gen and updates the copies. It reports whether every node
// must be visited: no valid memo, or a different shape, W or dmax.
// Otherwise it flags the root path above every changed request and
// edge length.
func (g *genMemo) markDirty(in *core.Instance) (full bool) {
	f := in.Tree
	n := f.Len()
	if g.valid && in.W == g.w && in.DMax == g.dmax && slices.Equal(f.Parents, g.parents) {
		for j := 0; j < n; j++ {
			if f.Reqs[j] == g.reqs[j] && f.EdgeLens[j] == g.edgeLens[j] {
				continue
			}
			g.reqs[j], g.edgeLens[j] = f.Reqs[j], f.EdgeLens[j]
			// Flags are upward-closed, so the first flagged node means
			// the rest of the path is flagged too.
			for k := f.Parents[j]; k != tree.None && !g.dirty[k]; k = f.Parents[k] {
				g.dirty[k] = true
			}
		}
		return false
	}
	g.parents = append(g.parents[:0], f.Parents...)
	g.edgeLens = append(g.edgeLens[:0], f.EdgeLens...)
	g.reqs = append(g.reqs[:0], f.Reqs...)
	g.w, g.dmax = in.W, in.DMax
	// A full pass rewrites every entry it reads, so growing needs no
	// copy; dirty is all false, fresh or not.
	g.out = grow(g.out, n)
	g.next = grow(g.next, n)
	g.serverOf = grow(g.serverOf, n)
	g.isReplica = grow(g.isReplica, n)
	g.dirty = grow(g.dirty, n)
	return true
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// visit runs Algorithm 1's decision at internal node j on its
// children's pendings and stores the pending j forwards.
func (s *Session) visit(j tree.NodeID) {
	f, g := s.in.Tree, &s.gen
	root := j == f.Root()
	if root {
		g.isReplica[j] = false
	}
	kids := g.kids[:0]
	for _, c := range f.Children(j) {
		g.isReplica[c] = false // only this visit places a replica at c
		p := genPending{head: tree.None, tail: tree.None, dist: s.in.DMax}
		if !f.IsClient(c) {
			p = g.out[c]
		} else if r := f.Reqs[c]; r > 0 {
			p.head, p.tail, p.total = c, c, r
		}
		kids = append(kids, p)
	}
	var sum int64
	for i, c := range f.Children(j) {
		p := &kids[i]
		// Step 1: requests that cannot travel the edge (c → j) are
		// served at c itself.
		if f.Dist(c) > p.dist && p.total > 0 {
			s.place(c, p)
		} else {
			p.dist -= f.Dist(c)
		}
		sum += p.total
	}
	out := genPending{head: tree.None, tail: tree.None, dist: s.in.DMax}
	if sum > s.in.W {
		// Step 2: too much to carry; a server on every child that
		// still has pending requests.
		for i, c := range f.Children(j) {
			if kids[i].total > 0 {
				s.place(c, &kids[i])
			}
		}
	} else {
		// Step 3: merge the pending sets; the distance budget is the
		// minimum over contributing children.
		for i := range kids {
			p := &kids[i]
			if p.total == 0 {
				continue
			}
			if out.head == tree.None {
				out.head = p.head
			} else {
				g.next[out.tail] = p.head
			}
			out.tail = p.tail
			out.total += p.total
			out.dist = min(out.dist, p.dist)
		}
		if root && out.total > 0 {
			// Step 3a: the root absorbs whatever remains; elsewhere
			// (step 3b) the merged set travels upwards.
			s.place(j, &out)
		}
	}
	g.out[j] = out
	g.kids = kids[:0]
}

// place puts a replica at node x serving every client of p's chain,
// and empties p.
func (s *Session) place(x tree.NodeID, p *genPending) {
	g := &s.gen
	g.isReplica[x] = true
	for c := p.head; ; c = g.next[c] {
		g.serverOf[c] = x
		if c == p.tail {
			break
		}
	}
	*p = genPending{head: tree.None, tail: tree.None, dist: s.in.DMax}
}
