package single

import (
	"fmt"
	"sort"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// Session is the package's implementation of Algorithms 1 and 2.
// Bind it to a validated instance with Reset, then call Gen/NoD
// repeatedly: after the first solve has grown the buffers, further
// solves on the same (or a same-shape) instance perform zero heap
// allocations. The recursive oracles in reference_test.go pin its
// answers.
//
// All working memory lives in the session: client bundles are nodes of
// an arena linked list (so merging bundles is O(1) pointer splicing
// instead of slice appends), the Algorithm 1 pending couples live on an
// explicit postorder value stack, and the Algorithm 2 sorted lists Lj
// are per-node slices reused across solves. The returned *core.Solution
// is owned by the session and valid only until the next solve on it.
// A Session is not safe for concurrent use.
type Session struct {
	in      *core.Instance
	relaxed core.Instance // NoD verifies against the DMax-free twin
	sc      core.Scratch
	sol     core.Solution

	arena  []cnode      // client bundles, reset every solve
	pstack []genPending // Algorithm 1 postorder stack
	lists  [][]nentry   // Algorithm 2: Lj, sorted by non-decreasing total
}

// cnode is one client bundle in the arena: a (client, r) pair plus the
// index of the next bundle of the same pending set (-1 terminates).
type cnode struct {
	client tree.NodeID
	r      int64
	next   int32
}

// genPending is one pending couple (req, dist) of Algorithm 1, its
// client bundles kept as an arena list [head, tail].
type genPending struct {
	head, tail  int32
	total, dist int64
}

// nentry is one element of a sorted pending list Lj of Algorithm 2:
// a node together with the client bundles it carries, kept as an
// arena list [head, tail].
type nentry struct {
	node       tree.NodeID
	total      int64
	head, tail int32
}

// Reset binds the session to an instance. The caller must have
// validated the instance (the solver seam validates once at ingest);
// Reset itself does not allocate.
func (s *Session) Reset(in *core.Instance) {
	s.in = in
	s.relaxed = core.Instance{Tree: in.Tree, W: in.W, DMax: core.NoDistance}
}

func (s *Session) resetSolve() {
	s.sol.Replicas = s.sol.Replicas[:0]
	s.sol.Assignments = s.sol.Assignments[:0]
	s.arena = s.arena[:0]
}

func (s *Session) newCNode(c tree.NodeID, r int64) int32 {
	s.arena = append(s.arena, cnode{client: c, r: r, next: -1})
	return int32(len(s.arena) - 1)
}

// feasibleSingle is Instance.Feasible(core.Single) computed without
// allocating: a Single instance is feasible iff every client has
// ri ≤ W, i.e. max ri ≤ W.
func feasibleSingle(f *tree.Tree, w int64) bool {
	return f.MaxRequests() <= w
}

// Gen runs Algorithm 1. It produces the same normalized solution as
// the recursive procedure single-gen(j): the recursion is replaced by
// a value stack over the stored postorder — when an internal node is
// reached, its children's pending couples are exactly the top
// NumChildren stack entries in child order — and the placement
// decisions depend only on the (total, dist) values, never on event
// order, so the normalized result is identical.
func (s *Session) Gen() (*core.Solution, error) {
	in, f := s.in, s.in.Tree
	if !feasibleSingle(f, in.W) {
		return nil, fmt.Errorf("single: some client exceeds W=%d; Single has no solution", in.W)
	}
	s.resetSolve()
	st := s.pstack[:0]
	root := f.Root()
	for _, j := range f.Post {
		if f.IsClient(j) {
			p := genPending{head: -1, tail: -1, total: f.Reqs[j], dist: in.DMax}
			if p.total > 0 {
				idx := s.newCNode(j, p.total)
				p.head, p.tail = idx, idx
			}
			st = append(st, p)
			continue
		}
		k := f.NumChildren(j)
		base := len(st) - k
		var sum int64
		ci := 0
		for _, c := range f.Children(j) {
			p := &st[base+ci]
			// Step 1: requests that cannot travel the edge (c → j) are
			// served at c itself.
			if f.Dist(c) > p.dist && p.total > 0 {
				s.place(c, p)
			} else {
				p.dist -= f.Dist(c)
			}
			sum += p.total
			ci++
		}
		out := genPending{head: -1, tail: -1, dist: in.DMax}
		switch {
		case sum > in.W:
			// Step 2: too much to carry; a server on every child that
			// still has pending requests.
			ci = 0
			for _, c := range f.Children(j) {
				if st[base+ci].total > 0 {
					s.place(c, &st[base+ci])
				}
				ci++
			}
		case j == root:
			// Step 3a: the root absorbs whatever remains.
			if sum > 0 {
				s.sol.AddReplica(j)
				for i := 0; i < k; i++ {
					for x := st[base+i].head; x != -1; x = s.arena[x].next {
						s.sol.Assign(s.arena[x].client, j, s.arena[x].r)
					}
				}
			}
		default:
			// Step 3b: forward the merged pending set upwards; the
			// distance budget is the minimum over contributing children.
			for i := 0; i < k; i++ {
				p := &st[base+i]
				if p.total == 0 {
					continue
				}
				if out.head == -1 {
					out.head, out.tail = p.head, p.tail
				} else {
					s.arena[out.tail].next = p.head
					out.tail = p.tail
				}
				out.total += p.total
				if p.dist < out.dist {
					out.dist = p.dist
				}
			}
		}
		st = st[:base]
		st = append(st, out)
	}
	s.pstack = st
	if st[0].total != 0 {
		panic("single: gen left unassigned requests at the root")
	}
	s.sol.Normalize()
	if err := s.sc.Verify(in, core.Single, &s.sol); err != nil {
		return nil, fmt.Errorf("single: gen produced infeasible solution: %w", err)
	}
	return &s.sol, nil
}

// place puts a replica at node x serving all of p's bundles.
func (s *Session) place(x tree.NodeID, p *genPending) {
	s.sol.AddReplica(x)
	for i := p.head; i != -1; i = s.arena[i].next {
		s.sol.Assign(s.arena[i].client, x, s.arena[i].r)
	}
	p.head, p.tail = -1, -1
	p.total = 0
	p.dist = s.in.DMax
}

// NoD runs Algorithm 2. Unlike Gen it keeps the paper's recursion
// over single-nod(j): the sorted insert into Lj places a new
// entry before existing entries of equal total, so the exact
// interleaving of re-attach and forward insertions matters for
// tie-breaking, and recursion reproduces it. Method recursion
// does not heap-allocate.
func (s *Session) NoD() (*core.Solution, error) {
	in, f := s.in, s.in.Tree
	if !feasibleSingle(f, in.W) {
		return nil, fmt.Errorf("single: some client exceeds W=%d; Single has no solution", in.W)
	}
	s.resetSolve()
	n := f.Len()
	if cap(s.lists) < n {
		s.lists = make([][]nentry, n)
	}
	s.lists = s.lists[:n]
	for i := range s.lists {
		s.lists[i] = s.lists[i][:0]
	}
	rem := s.nodVisit(f.Root())
	if rem != 0 {
		panic("single: nod left unassigned requests at the root")
	}
	s.sol.Normalize()
	if err := s.sc.Verify(&s.relaxed, core.Single, &s.sol); err != nil {
		return nil, fmt.Errorf("single: nod produced infeasible solution: %w", err)
	}
	return &s.sol, nil
}

func (s *Session) nodVisit(j tree.NodeID) int64 {
	f := s.in.Tree
	if f.IsClient(j) {
		return f.Reqs[j]
	}
	for _, c := range f.Children(j) {
		req := s.nodVisit(c)
		if req != 0 {
			e := nentry{node: c, total: req, head: -1, tail: -1}
			if f.IsClient(c) {
				idx := s.newCNode(c, req)
				e.head, e.tail = idx, idx
			} else {
				e.head, e.tail = s.nodCollect(c)
			}
			s.nodInsert(j, e)
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
				s.sol.AddReplica(e.node)
				s.nodAssign(e.node, e)
			} else {
				s.nodAssign(j, e)
			}
			k++
		}
		rest := l[k:]
		if j != f.Root() {
			// Step 1a: re-attach unhandled entries to the parent.
			// nodInsert copies the entry into the parent's list, so
			// truncating Lj afterwards is safe.
			parent := f.Parents[j]
			for i := range rest {
				s.nodInsert(parent, rest[i])
			}
		} else {
			// Step 1b: at the root, every unhandled entry gets a
			// server at its own node.
			for i := range rest {
				s.sol.AddReplica(rest[i].node)
				s.nodAssign(rest[i].node, &rest[i])
			}
		}
		s.lists[j] = l[:0]
		return 0
	}

	// Step 2: everything fits at j or above.
	if j != f.Root() {
		return sum
	}
	// Step 2b: the root absorbs the remainder.
	if sum > 0 {
		s.sol.AddReplica(j)
		for i := range l {
			s.nodAssign(j, &l[i])
		}
	}
	s.lists[j] = l[:0]
	return 0
}

// nodInsert adds e into the sorted list of node j (non-decreasing
// total; a new entry goes before existing entries of equal total).
func (s *Session) nodInsert(j tree.NodeID, e nentry) {
	l := s.lists[j]
	k := sort.Search(len(l), func(i int) bool { return l[i].total >= e.total })
	l = append(l, nentry{})
	copy(l[k+1:], l[k:])
	l[k] = e
	s.lists[j] = l
}

// nodAssign gives all bundles of e to server srv.
func (s *Session) nodAssign(srv tree.NodeID, e *nentry) {
	for i := e.head; i != -1; i = s.arena[i].next {
		s.sol.Assign(s.arena[i].client, srv, s.arena[i].r)
	}
}

// nodCollect drains the pending list of internal node c, splicing all
// of its bundles into one arena list.
func (s *Session) nodCollect(c tree.NodeID) (head, tail int32) {
	head, tail = -1, -1
	l := s.lists[c]
	for i := range l {
		if l[i].head == -1 {
			continue
		}
		if head == -1 {
			head, tail = l[i].head, l[i].tail
		} else {
			s.arena[tail].next = l[i].head
			tail = l[i].tail
		}
	}
	s.lists[c] = l[:0]
	return head, tail
}
