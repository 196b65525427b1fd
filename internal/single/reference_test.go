package single

import (
	"fmt"
	"sort"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// This file keeps the package's first implementations of Algorithms 1
// and 2, the pass-up variant, their best-of and the push-up post-pass
// as test oracles for Session, which is what the package runs. They
// share nothing with it: they recurse over the child lists, carry
// client bundles in freshly allocated slices, keep pending lists in
// maps, and push-up rescans every server after each move.

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

// referencePassUp is the map-based, recursive pass-up variant, the
// oracle for Session.PassUp.
func referencePassUp(in *core.Instance) (*core.Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if !in.Feasible(core.Single) {
		return nil, fmt.Errorf("single: some client exceeds W=%d; Single has no solution", in.W)
	}
	relaxed := &core.Instance{Tree: in.Tree, W: in.W, DMax: core.NoDistance}
	sol := &core.Solution{}
	s := &passUpState{in: relaxed, sol: sol, lists: make(map[tree.NodeID][]entry)}
	s.visit(relaxed.Tree.Root())
	sol.Normalize()
	if err := core.Verify(relaxed, core.Single, sol); err != nil {
		return nil, fmt.Errorf("single: pass-up produced infeasible solution: %w", err)
	}
	return sol, nil
}

// referenceBest is the better of referenceNoD and referencePassUp, the
// oracle for Session.Best.
func referenceBest(in *core.Instance) (*core.Solution, error) {
	a, err := referenceNoD(in)
	if err != nil {
		return nil, err
	}
	b, err := referencePassUp(in)
	if err != nil {
		return nil, err
	}
	if b.NumReplicas() < a.NumReplicas() {
		return b, nil
	}
	return a, nil
}

// clientReq is a whole-client request bundle: under the Single policy
// a bundle is never split, so it travels and is assigned as a unit.
type clientReq struct {
	client tree.NodeID
	r      int64
}

// entry is an element of a pending list: a node (the client a bundle
// started at, or a node that carried it) together with the
// whole-client request bundles it carries.
type entry struct {
	node    tree.NodeID
	total   int64
	clients []clientReq
}

type passUpState struct {
	in    *core.Instance
	sol   *core.Solution
	lists map[tree.NodeID][]entry // pending entries per node (unsorted)
}

func (s *passUpState) assign(srv tree.NodeID, e *entry) {
	for _, c := range e.clients {
		s.sol.Assign(c.client, srv, c.r)
	}
}

// pack greedily selects entries for one server of capacity W,
// largest-first (first-fit decreasing on a single bin), returning the
// selected and remaining entries.
func pack(l []entry, W int64) (take, rest []entry) {
	idx := make([]int, len(l))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if l[idx[a]].total != l[idx[b]].total {
			return l[idx[a]].total > l[idx[b]].total
		}
		return l[idx[a]].node < l[idx[b]].node
	})
	var load int64
	chosen := make([]bool, len(l))
	for _, i := range idx {
		if load+l[i].total <= W {
			load += l[i].total
			chosen[i] = true
		}
	}
	for i := range l {
		if chosen[i] {
			take = append(take, l[i])
		} else {
			rest = append(rest, l[i])
		}
	}
	return take, rest
}

// visit returns nothing; the pending list of j is stored in s.lists[j]
// and consumed by the parent.
func (s *passUpState) visit(j tree.NodeID) {
	t := s.in.Tree
	if t.IsClient(j) {
		if r := t.Requests(j); r > 0 {
			s.lists[j] = []entry{{node: j, total: r, clients: []clientReq{{j, r}}}}
		}
		return
	}
	var pending []entry
	for _, c := range t.Children(j) {
		s.visit(c)
		pending = append(pending, s.lists[c]...)
		delete(s.lists, c)
	}
	var sum int64
	for i := range pending {
		sum += pending[i].total
	}

	if j == t.Root() {
		if sum == 0 {
			return
		}
		// Pack one root server; every leftover bundle is served at
		// the node that carried it (an ancestor of its clients).
		take, rest := pack(pending, s.in.W)
		if len(take) > 0 {
			s.sol.AddReplica(j)
			for i := range take {
				s.assign(j, &take[i])
			}
		}
		for i := range rest {
			s.sol.AddReplica(rest[i].node)
			s.assign(rest[i].node, &rest[i])
		}
		return
	}

	if sum > s.in.W {
		// Overflow: one server at j packed largest-first; the
		// remainder keeps climbing. Bundles keep their originating
		// client as `node`, so a leftover bundle can always fall back
		// to a local server.
		take, rest := pack(pending, s.in.W)
		s.sol.AddReplica(j)
		for i := range take {
			s.assign(j, &take[i])
		}
		pending = rest
	}
	s.lists[j] = pending
}

// referencePushUp is the first push-up post-pass, which rescans every
// server after each move, the oracle for PushUp and Session.PushUp.
func referencePushUp(in *core.Instance, sol *core.Solution) *core.Solution {
	out := sol.Clone()
	t := in.Tree
	for {
		loads := out.Loads()
		rset := out.ReplicaSet()
		// Consider the deepest servers first: their loads are the
		// easiest to re-home and freeing them unblocks nothing above.
		servers := append([]tree.NodeID{}, out.Replicas...)
		sort.Slice(servers, func(a, b int) bool {
			da, db := t.Depth(servers[a]), t.Depth(servers[b])
			if da != db {
				return da > db
			}
			return servers[a] < servers[b]
		})
		moved := false
		for _, s := range servers {
			target := tree.None
			// Walk ancestors of s from the nearest up.
			for a := s; a != t.Root(); {
				a = t.Parent(a)
				if !rset[a] || loads[a]+loads[s] > in.W {
					continue
				}
				// Every client of s must tolerate the longer distance
				// (trivially true when dmax = ∞) — and a is an
				// ancestor of s, hence of all of s's clients.
				allOK := true
				for _, asg := range out.Assignments {
					if asg.Server != s {
						continue
					}
					if t.DistanceUp(asg.Client, a) > in.DMax {
						allOK = false
						break
					}
				}
				if allOK {
					target = a
					break
				}
			}
			if target == tree.None {
				continue
			}
			// Re-home s's load onto target and drop s.
			for i := range out.Assignments {
				if out.Assignments[i].Server == s {
					out.Assignments[i].Server = target
				}
			}
			keep := out.Replicas[:0]
			for _, r := range out.Replicas {
				if r != s {
					keep = append(keep, r)
				}
			}
			out.Replicas = keep
			moved = true
			break // recompute loads and depth order
		}
		if !moved {
			break
		}
	}
	out.Normalize()
	return out
}
