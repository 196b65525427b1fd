package single

import (
	"cmp"
	"fmt"
	"slices"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// Algorithm 2 and the pass-up variant are bottom-up: a node's pending
// set is complete once its last child has finished, so both handle
// each internal node once, when the stored postorder reaches it, and
// a finished node hands its leftovers to its parent. Both ignore the
// instance's DMax: their answers are feasible for its NoD relaxation,
// and so for the instance itself whenever its dmax is
// core.NoDistance, the only instances their engines accept.

// NoD runs Algorithm 2 (single-nod), the 2-approximation for
// Single-NoD. It refuses an instance with some rᵢ > W. Time
// complexity: O((Δ log Δ + |C|)·|T|) (Theorem 4).
func (s *Session) NoD() (*core.Solution, error) { return s.nod(&s.sol) }

// PassUp runs an experimental Single-NoD heuristic in the direction
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
// client.
//
// On the Fig. 4 family, where Algorithm 2 is stuck at ratio 2, this
// variant is optimal. No approximation factor is proven; experiment
// E13 measures its empirical ratio against exact optima, and Best (the
// better of NoD and PassUp) is the practical tool.
func (s *Session) PassUp() (*core.Solution, error) { return s.passUp(&s.sol) }

// Best runs Algorithm 2 and the pass-up variant and returns the one
// with fewer replicas, Algorithm 2's on a tie: never worse than
// either, so Algorithm 2's factor-2 guarantee carries over.
func (s *Session) Best() (*core.Solution, error) {
	a, err := s.nod(&s.sol)
	if err != nil {
		return nil, err
	}
	b, err := s.passUp(&s.alt)
	if err != nil {
		return nil, err
	}
	if b.NumReplicas() < a.NumReplicas() {
		return b, nil
	}
	return a, nil
}

func (s *Session) nod(sol *core.Solution) (*core.Solution, error) {
	in, f := s.in, s.in.Tree
	if !in.FitsLocally() {
		return nil, fmt.Errorf("single: some client exceeds W=%d; Single has no solution", in.W)
	}
	sol.Replicas, sol.Assignments = sol.Replicas[:0], sol.Assignments[:0]
	s.arena = s.arena[:0]
	s.lists = grow(s.lists, f.Len())
	for i := range s.lists {
		s.lists[i] = s.lists[i][:0]
	}
	root := f.Root()
	for _, j := range f.Post {
		if f.IsClient(j) {
			if r := f.Reqs[j]; r > 0 {
				s.arena = append(s.arena, cnode{client: j, r: r, next: -1})
				idx := int32(len(s.arena) - 1)
				s.forward(j, nentry{node: j, total: r, head: idx, tail: idx})
			}
			continue
		}
		// Lj as the paper's sorted inserts build it: by total, and a
		// later arrival before an earlier one of equal total.
		l := s.lists[j]
		slices.Reverse(l)
		slices.SortStableFunc(l, func(a, b nentry) int { return cmp.Compare(a.total, b.total) })
		var sum int64
		for i := range l {
			sum += l[i].total
		}
		switch {
		case sum > in.W:
			// Step 1: place a server at j, fill it greedily with the
			// smallest entries, and give the first entry that does not
			// fit a server of its own (jmin).
			sol.Replicas = append(sol.Replicas, j)
			var temp int64
			k := 0
			for ; k < len(l) && temp <= in.W; k++ {
				temp += l[k].total
				if temp > in.W {
					sol.Replicas = append(sol.Replicas, l[k].node)
					s.nodAssign(sol, l[k].node, &l[k])
				} else {
					s.nodAssign(sol, j, &l[k])
				}
			}
			for i := k; i < len(l); i++ {
				if j != root {
					// Step 1a: re-attach unhandled entries to the parent.
					s.forward(j, l[i])
				} else {
					// Step 1b: at the root, every unhandled entry gets a
					// server at its own node.
					sol.Replicas = append(sol.Replicas, l[i].node)
					s.nodAssign(sol, l[i].node, &l[i])
				}
			}
		case j != root:
			// Step 2: everything fits at j or above; j forwards its
			// bundles as one entry.
			if sum > 0 {
				e := nentry{node: j, total: sum, head: -1, tail: -1}
				for i := range l {
					if e.head == -1 {
						e.head = l[i].head
					} else {
						s.arena[e.tail].next = l[i].head
					}
					e.tail = l[i].tail
				}
				s.forward(j, e)
			}
		case sum > 0:
			// Step 2b: the root absorbs the remainder.
			sol.Replicas = append(sol.Replicas, j)
			for i := range l {
				s.nodAssign(sol, j, &l[i])
			}
		}
		s.lists[j] = l[:0]
	}
	sol.Normalize()
	return sol, nil
}

// forward appends e to the list of j's parent.
func (s *Session) forward(j tree.NodeID, e nentry) {
	p := s.in.Tree.Parents[j]
	s.lists[p] = append(s.lists[p], e)
}

// nodAssign gives all bundles of e to server srv.
func (s *Session) nodAssign(sol *core.Solution, srv tree.NodeID, e *nentry) {
	for i := e.head; i != -1; i = s.arena[i].next {
		sol.Assign(s.arena[i].client, srv, s.arena[i].r)
	}
}

// upSeg is a node's pending set in pass-up once the node has finished:
// the clients on stack[base:] at that moment, total requests in all.
type upSeg struct {
	base  int32
	total int64
}

// passUp runs the pass-up variant. Its bundles are single clients that
// never merge, so the pending set of a finished node is the top of one
// stack of clients: its children's sets, in child order.
func (s *Session) passUp(sol *core.Solution) (*core.Solution, error) {
	in, f := s.in, s.in.Tree
	if !in.FitsLocally() {
		return nil, fmt.Errorf("single: some client exceeds W=%d; Single has no solution", in.W)
	}
	sol.Replicas, sol.Assignments = sol.Replicas[:0], sol.Assignments[:0]
	s.segs = grow(s.segs, f.Len())
	stack := s.stack[:0]
	for _, j := range f.Post {
		if f.IsClient(j) {
			s.segs[j] = upSeg{base: int32(len(stack)), total: f.Reqs[j]}
			if f.Reqs[j] > 0 {
				stack = append(stack, j)
			}
			continue
		}
		kids := f.Children(j)
		seg := upSeg{base: s.segs[kids[0]].base}
		for _, c := range kids {
			seg.total += s.segs[c].total
		}
		root := j == f.Root()
		if seg.total > in.W || root && seg.total > 0 {
			// One server at j, packed largest first (ID breaks ties):
			// the order is strict, so the order of the pending set is
			// immaterial. The rest keeps climbing; at the root it is
			// served where it started.
			pending := stack[seg.base:]
			slices.SortFunc(pending, func(a, b tree.NodeID) int {
				if c := cmp.Compare(f.Reqs[b], f.Reqs[a]); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
			sol.Replicas = append(sol.Replicas, j)
			var load int64
			rest := pending[:0]
			for _, c := range pending {
				if r := f.Reqs[c]; load+r <= in.W {
					load += r
					sol.Assign(c, j, r)
				} else {
					rest = append(rest, c)
				}
			}
			seg.total -= load
			stack = stack[:int(seg.base)+len(rest)]
			if root {
				for _, c := range rest {
					sol.Replicas = append(sol.Replicas, c)
					sol.Assign(c, c, f.Reqs[c])
				}
			}
		}
		s.segs[j] = seg
	}
	s.stack = stack
	sol.Normalize()
	return sol, nil
}
