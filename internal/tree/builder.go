package tree

import (
	"fmt"
	"slices"
)

// Builder constructs a Tree one node at a time. Typical use:
//
//	b := tree.NewBuilder()
//	r := b.Root("root")
//	n := b.Internal(r, 1, "n1")
//	b.Client(n, 2, 10, "c1")
//	t, err := b.Build()
//
// Nodes arrive in topological ID order: the root first, as ID 0, then
// every node after its parent. IDs are assigned densely in arrival
// order, and a node's children keep their arrival order, so a
// streamed tree (the chunked wire format, a generator) is built with
// no second copy of it resident.
//
// Root, Internal and Client panic on structurally impossible
// operations (two roots, an unknown parent), because from trusted
// code those are programming errors; Add reports them as errors for
// untrusted input. Build returns an error for every semantic fault.
type Builder struct {
	t Tree
}

// maxPrealloc caps the capacity a size hint reserves: one chunk of the
// chunked wire format. A hint is what the input claims, not what has
// arrived, so past the cap the arrays grow by append as nodes come in.
const maxPrealloc = 8192

// maxNodes bounds the node count; IDs and child offsets are int32.
const maxNodes = 1 << 30

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Grow reserves room for n more nodes, at most maxPrealloc of them.
func (b *Builder) Grow(n int) {
	n = min(n, maxPrealloc)
	t := &b.t
	t.Parents = slices.Grow(t.Parents, n)
	t.EdgeLens = slices.Grow(t.EdgeLens, n)
	t.Reqs = slices.Grow(t.Reqs, n)
}

// Len returns the number of nodes added so far, which is also the ID
// the next node gets.
func (b *Builder) Len() int { return len(b.t.Parents) }

// Add appends one node and returns its ID. The first node must be the
// root (parent None); every later one must name an already-added
// parent. dist is the length of the edge to the parent (0 for the
// root). requests must be 0 for a node that later gets children;
// Build checks this and every other per-node invariant.
func (b *Builder) Add(parent NodeID, dist, requests int64, label string) (NodeID, error) {
	t := &b.t
	id := NodeID(len(t.Parents))
	switch {
	case id >= maxNodes:
		return None, fmt.Errorf("tree: more than %d nodes", maxNodes)
	case parent == None && id != 0:
		return None, fmt.Errorf("tree: node %d has no parent; only the first node may be the root", id)
	case parent != None && (parent < 0 || parent >= id):
		return None, fmt.Errorf("tree: node %d has parent %d, want an already-added node (topological ID order)", id, parent)
	}
	t.Parents = append(t.Parents, parent)
	t.EdgeLens = append(t.EdgeLens, dist)
	t.Reqs = append(t.Reqs, requests)
	t.addLabel(id, label)
	return id, nil
}

func (b *Builder) mustAdd(parent NodeID, dist, requests int64, label string) NodeID {
	id, err := b.Add(parent, dist, requests, label)
	if err != nil {
		panic(err)
	}
	return id
}

// Root creates the root node. It must be called exactly once, before
// any other node is added. The optional label names the node.
func (b *Builder) Root(label string) NodeID { return b.mustAdd(None, 0, 0, label) }

// Internal adds an internal node under parent with edge length dist.
func (b *Builder) Internal(parent NodeID, dist int64, label string) NodeID {
	if parent == None {
		panic("tree: Internal under no parent")
	}
	return b.mustAdd(parent, dist, 0, label)
}

// Client adds a client (leaf) node with the given request rate under
// parent with edge length dist.
func (b *Builder) Client(parent NodeID, dist, requests int64, label string) NodeID {
	if parent == None {
		panic("tree: Client under no parent")
	}
	return b.mustAdd(parent, dist, requests, label)
}

// Build indexes and validates the tree and hands it over; the Builder
// is empty afterwards.
func (b *Builder) Build() (*Tree, error) {
	t := new(Tree)
	*t, b.t = b.t, Tree{}
	if err := t.link(); err != nil {
		return nil, err
	}
	return t, nil
}

// MustBuild is Build but panics on error; intended for tests and
// generators of known-good instances.
func (b *Builder) MustBuild() *Tree {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// link builds the child index from Parents, then validates the tree
// and records its visit orders. Children come out in ascending ID
// order, since the counting pass places them in ID order.
func (t *Tree) link() error {
	n := len(t.Parents)
	t.index(n, func(i int) (NodeID, NodeID) { return NodeID(i), t.Parents[i] })
	return t.order()
}

// index fills the child index from m child links, link(i) returning
// the i-th as (child, parent); a parent of None is no link, and every
// other parent must be in range. It counts the children per parent,
// places them in link order, and sorts a child list only if its links
// arrived out of ID order. Array capacity is reused.
func (t *Tree) index(m int, link func(i int) (c, p NodeID)) {
	n := len(t.Parents)
	start := slices.Grow(t.ChildStart[:0], n+1)[:n+1]
	clear(start)
	for i := 0; i < m; i++ {
		if _, p := link(i); p != None {
			start[p+1]++
		}
	}
	for j := 0; j < n; j++ {
		start[j+1] += start[j]
	}
	list := slices.Grow(t.ChildList[:0], int(start[n]))[:start[n]]
	// Place each child at its parent's next free slot, found by
	// counting down from the end of the parent's range.
	for i := m - 1; i >= 0; i-- {
		if c, p := link(i); p != None {
			start[p+1]--
			list[start[p+1]] = c
		}
	}
	// start[j+1] now holds the start of j's range; shift it down.
	copy(start, start[1:])
	start[n] = int32(len(list))
	for j := 0; j < n; j++ {
		if kids := list[start[j]:start[j+1]]; !slices.IsSorted(kids) {
			slices.Sort(kids)
		}
	}
	t.ChildStart, t.ChildList = start, list
}

// order sizes Pre and Post and records the tree's visit orders in
// them. A tree with topological IDs (root 0, every parent before its
// child) whose every node passes its local checks gets them in linear
// passes over subtree sizes; any other tree, and any fault, is left to
// the validating walk, which names the fault.
func (t *Tree) order() error {
	n := len(t.Parents)
	t.Pre = slices.Grow(t.Pre[:0], n)[:n]
	t.Post = slices.Grow(t.Post[:0], n)[:n]
	if t.linearOrder() {
		return nil
	}
	return t.walk(true)
}

// linearOrder records the visit orders the walk would record, and
// reports whether it could: false leaves Pre and Post undefined. One
// backward pass over the IDs checks the tree (every check the walk
// makes, in the form topological IDs allow) and sums subtree sizes.
// One forward pass then places each node, after its parent and its
// lower-ID siblings, at its parent's next preorder slot, and at
// postorder slot pre + size − 1 − depth: of the nodes before it in
// preorder, depth are its ancestors, still open, and it closes after
// its size − 1 descendants.
func (t *Tree) linearOrder() bool {
	n := len(t.Parents)
	start, list := t.ChildStart, t.ChildList
	if n == 0 || t.root != 0 || t.Parents[0] != None ||
		len(t.EdgeLens) != n || len(t.Reqs) != n || !t.labelsAgree() ||
		len(start) != n+1 || start[0] != 0 || int(start[n]) != n-1 || len(list) != n-1 ||
		t.IsClient(0) {
		return false
	}
	// aux[j].next is the subtree size of j until j is placed, then the
	// preorder slot of j's next child.
	aux := make([]struct{ next, depth int32 }, n)
	for j := n - 1; j >= 0; j-- {
		lo, hi := start[j], start[j+1]
		if lo < 0 || lo > hi || t.local(NodeID(j)) != nil {
			return false
		}
		// Every listed child follows j and names it as its parent,
		// once: with n−1 entries in all, the lists hold exactly the
		// parent links, in the ID order the forward pass places them.
		prev := NodeID(j)
		for _, c := range list[lo:hi] {
			if c <= prev || int(c) >= n || t.Parents[c] != NodeID(j) {
				return false
			}
			prev = c
		}
		aux[j].next++
		if j > 0 {
			p := t.Parents[j]
			if p < 0 || int(p) >= j {
				return false
			}
			aux[p].next += aux[j].next
		}
	}
	t.Pre[0], t.Post[n-1], aux[0].next = 0, 0, 1
	for j := 1; j < n; j++ {
		up := &aux[t.Parents[j]]
		pre, size, depth := up.next, aux[j].next, up.depth+1
		up.next += size
		t.Pre[pre] = NodeID(j)
		t.Post[pre+size-1-depth] = NodeID(j)
		aux[j].next, aux[j].depth = pre+1, depth
	}
	return true
}
