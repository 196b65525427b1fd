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
// All working memory lives in the session. Algorithm 1 keeps a
// per-node memo across solves and re-visits only the root paths whose
// inputs changed since its last solve (gen.go), so a session re-solving
// a slightly edited instance does work proportional to the edit plus
// one verification. Algorithm 2's client bundles are nodes of an arena
// linked list (so merging bundles is O(1) pointer splicing instead of
// slice appends), and its sorted lists Lj are per-node slices reused
// across solves. The returned *core.Solution is owned by the session
// and valid only until the next solve on it. A Session is not safe for
// concurrent use.
type Session struct {
	in      *core.Instance
	relaxed core.Instance // NoD verifies against the DMax-free twin
	sc      core.Scratch
	sol     core.Solution

	gen   genMemo    // Algorithm 1
	arena []cnode    // Algorithm 2 client bundles, reset every solve
	lists [][]nentry // Algorithm 2: Lj, sorted by non-decreasing total
}

// cnode is one client bundle in the arena: a (client, r) pair plus the
// index of the next bundle of the same pending set (-1 terminates).
type cnode struct {
	client tree.NodeID
	r      int64
	next   int32
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
// Reset itself does not allocate. Algorithm 1's memo survives Reset:
// Gen checks it against the newly bound instance.
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
