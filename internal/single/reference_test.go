package single

import (
	"fmt"
	"sort"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// This file keeps the package's first implementations of Algorithms 1
// and 2 as test oracles for Session, which is what the package runs.
// They share nothing with it but the bundle types of passup.go: both
// recurse over the child lists, carry client bundles in freshly
// allocated slices, and keep Algorithm 2's lists Lj in a map.

// pending is a batch of whole-client request bundles flowing up the
// tree. Under the Single policy a bundle is never split: either the
// whole client is assigned to a server or it keeps travelling up.
type pending struct {
	clients []clientReq
	total   int64
	dist    int64 // remaining distance budget: requests must be served within dist of the current node
}

// referenceGen is the recursive Algorithm 1 (single-gen), the oracle
// for Gen and Session.Gen.
func referenceGen(in *core.Instance) (*core.Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if !in.Feasible(core.Single) {
		return nil, fmt.Errorf("single: some client exceeds W=%d; Single has no solution", in.W)
	}
	sol := &core.Solution{}
	g := &genState{in: in, sol: sol}
	p := g.visit(in.Tree.Root())
	// The paper's procedure guarantees single-gen(r) = (0, dmax):
	// everything has been assigned once the root returns.
	if p.total != 0 {
		panic("single: gen left unassigned requests at the root")
	}
	sol.Normalize()
	if err := core.Verify(in, core.Single, sol); err != nil {
		return nil, fmt.Errorf("single: gen produced infeasible solution: %w", err)
	}
	return sol, nil
}

type genState struct {
	in  *core.Instance
	sol *core.Solution
}

// place puts a replica at node x serving all of p's clients.
func (g *genState) place(x tree.NodeID, p *pending) {
	g.sol.AddReplica(x)
	for _, c := range p.clients {
		g.sol.Assign(c.client, x, c.r)
	}
	p.clients = nil
	p.total = 0
	p.dist = g.in.DMax
}

// visit is the recursive procedure single-gen(j) of Algorithm 1. It
// returns the couple (req, dist): req ≤ W requests that still need to
// be processed at or above j, within distance dist of j.
func (g *genState) visit(j tree.NodeID) pending {
	t := g.in.Tree
	if t.IsClient(j) {
		p := pending{total: t.Requests(j), dist: g.in.DMax}
		if p.total > 0 {
			p.clients = []clientReq{{j, p.total}}
		}
		return p
	}

	children := t.Children(j)
	ps := make([]pending, len(children))
	var sum int64
	for k, c := range children {
		p := g.visit(c)
		// Step 1: if the pending requests of child c cannot travel the
		// edge (c → j), serve them at c itself.
		if t.Dist(c) > p.dist && p.total > 0 {
			g.place(c, &p)
		} else {
			p.dist -= t.Dist(c)
		}
		ps[k] = p
		sum += p.total
	}

	if sum > g.in.W {
		// Step 2: too much to carry; a server on every child that
		// still has pending requests.
		for k := range ps {
			if ps[k].total > 0 {
				g.place(children[k], &ps[k])
			}
		}
		return pending{dist: g.in.DMax}
	}

	if j == t.Root() {
		// Step 3a: the root absorbs whatever remains.
		if sum > 0 {
			g.sol.AddReplica(j)
			for k := range ps {
				for _, c := range ps[k].clients {
					g.sol.Assign(c.client, j, c.r)
				}
			}
		}
		return pending{dist: g.in.DMax}
	}

	// Step 3b: forward the merged pending set upwards. The distance
	// budget of the merge is the minimum over contributing children.
	// (The paper takes the minimum over all children; we restrict it to
	// children that actually forward requests — a child forwarding
	// nothing cannot constrain anything. On instances where every
	// client has requests the two definitions coincide.)
	out := pending{dist: g.in.DMax}
	for k := range ps {
		if ps[k].total == 0 {
			continue
		}
		out.clients = append(out.clients, ps[k].clients...)
		out.total += ps[k].total
		if ps[k].dist < out.dist {
			out.dist = ps[k].dist
		}
	}
	return out
}

// referenceNoD is the recursive Algorithm 2 (single-nod), the oracle
// for NoD and Session.NoD. Like them it ignores the instance's DMax.
func referenceNoD(in *core.Instance) (*core.Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if !in.Feasible(core.Single) {
		return nil, fmt.Errorf("single: some client exceeds W=%d; Single has no solution", in.W)
	}
	relaxed := &core.Instance{Tree: in.Tree, W: in.W, DMax: core.NoDistance}
	sol := &core.Solution{}
	s := &nodState{in: relaxed, sol: sol, lists: make(map[tree.NodeID][]entry)}
	rem := s.visit(relaxed.Tree.Root())
	if rem != 0 {
		panic("single: nod left unassigned requests at the root")
	}
	sol.Normalize()
	if err := core.Verify(relaxed, core.Single, sol); err != nil {
		return nil, fmt.Errorf("single: nod produced infeasible solution: %w", err)
	}
	return sol, nil
}

type nodState struct {
	in    *core.Instance
	sol   *core.Solution
	lists map[tree.NodeID][]entry // Lj: pending entries, sorted by non-decreasing total
}

// insert adds e into the sorted list of node j (non-decreasing total).
func (s *nodState) insert(j tree.NodeID, e entry) {
	l := s.lists[j]
	k := sort.Search(len(l), func(i int) bool { return l[i].total >= e.total })
	l = append(l, entry{})
	copy(l[k+1:], l[k:])
	l[k] = e
	s.lists[j] = l
}

// assign gives all bundles of e to server srv.
func (s *nodState) assign(srv tree.NodeID, e *entry) {
	for _, c := range e.clients {
		s.sol.Assign(c.client, srv, c.r)
	}
}

// visit is the recursive procedure single-nod(j) of Algorithm 2. It
// returns the number of requests that still need to be processed at or
// above j. Side effect: it may move entries from Lj into Lparent(j).
func (s *nodState) visit(j tree.NodeID) int64 {
	t := s.in.Tree
	if t.IsClient(j) {
		return t.Requests(j)
	}
	for _, c := range t.Children(j) {
		req := s.visit(c)
		if req != 0 {
			e := entry{node: c, total: req}
			if t.IsClient(c) {
				e.clients = []clientReq{{c, req}}
			} else {
				// An internal child returning req != 0 forwarded the
				// union of its own pending entries; collect them.
				e.clients = s.collect(c)
			}
			s.insert(j, e)
		}
	}

	l := s.lists[j]
	var sum int64
	for i := range l {
		sum += l[i].total
	}

	if sum > s.in.W {
		// Step 1: place a server at j, fill it greedily with the
		// smallest entries, and give the first entry that does not fit
		// a server of its own (jmin).
		s.sol.AddReplica(j)
		var temp int64
		k := 0
		for k < len(l) && temp <= s.in.W {
			e := &l[k]
			temp += e.total
			if temp > s.in.W {
				// jmin: the overflow entry is served at its own node.
				s.sol.AddReplica(e.node)
				s.assign(e.node, e)
			} else {
				s.assign(j, e)
			}
			k++
		}
		rest := l[k:]
		delete(s.lists, j)
		if j != t.Root() {
			// Step 1a: re-attach unhandled entries to the parent.
			for _, e := range rest {
				s.insert(t.Parent(j), e)
			}
		} else {
			// Step 1b: at the root, every unhandled entry gets a
			// server at its own node.
			for i := range rest {
				s.sol.AddReplica(rest[i].node)
				s.assign(rest[i].node, &rest[i])
			}
		}
		return 0
	}

	// Step 2: everything fits at j or above.
	if j != t.Root() {
		return sum
	}
	// Step 2b: the root absorbs the remainder. (The paper places a
	// server unconditionally; we skip it when there is nothing left to
	// serve.)
	if sum > 0 {
		s.sol.AddReplica(j)
		for i := range l {
			s.assign(j, &l[i])
		}
	}
	delete(s.lists, j)
	return 0
}

// collect removes and returns all client bundles pending at internal
// node c — used when c's visit returned a non-zero req, meaning c
// forwarded its whole list upward as one aggregated entry.
func (s *nodState) collect(c tree.NodeID) []clientReq {
	l := s.lists[c]
	delete(s.lists, c)
	var out []clientReq
	for i := range l {
		out = append(out, l[i].clients...)
	}
	return out
}
