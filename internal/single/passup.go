package single

import (
	"fmt"
	"sort"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// NoDPassUp is an experimental Single-NoD heuristic in the direction
// the paper's conclusion sketches for a conjectured 3/2-approximation
// of Single-NoD-Bin: "push servers towards the root of the tree,
// whenever possible. A greedy algorithm is unlikely to be good
// enough."
//
// It mirrors Algorithm 2 but changes the overflow step: when the
// pending bundles at node j exceed W, the server placed at j packs
// bundles largest-first (maximising served volume), and the unpacked
// remainder travels towards the root instead of being dumped on a jmin
// server. At the root, whatever cannot be packed is served at its own
// carrying node.
//
// On the Fig. 4 family — where Algorithm 2 is stuck at ratio 2 — this
// variant is optimal. No approximation factor is proven; experiment
// E13 measures its empirical ratio against exact optima, and
// NoDBest (the better of NoD and NoDPassUp) is the practical tool.
func NoDPassUp(in *core.Instance) (*core.Solution, error) {
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

// NoDBest returns the better of NoD (Algorithm 2, proven
// 2-approximation) and NoDPassUp — never worse than either, so the
// 2-approximation guarantee carries over.
func NoDBest(in *core.Instance) (*core.Solution, error) {
	a, err := NoD(in)
	if err != nil {
		return nil, err
	}
	b, err := NoDPassUp(in)
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
