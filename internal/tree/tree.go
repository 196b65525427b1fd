// Package tree implements the distribution-tree substrate used by the
// replica placement algorithms: a rooted tree whose leaves are clients
// issuing requests and whose edges carry non-negative integer lengths.
//
// A Tree is a structure of arrays: nodes are dense NodeIDs indexing
// parallel per-node slices, the children of every node sit in one
// shared array in compressed sparse row (CSR) form, and the pre- and
// postorder visit sequences are stored. The bottom-up algorithms
// iterate Post instead of recursing, every per-node lookup is an array
// index, and a tree is built once per instance by one Builder.
package tree

import (
	"errors"
	"fmt"
	"math"
)

// NodeID identifies a node inside a Tree. IDs are dense: valid IDs are
// 0..Len()-1. The zero value is a valid ID (usually the root).
type NodeID int32

// None is the null NodeID, used for the parent of the root.
const None NodeID = -1

// Infinity is the edge length conceptually assigned to the (absent)
// edge above the root: requests can never travel past the root.
const Infinity int64 = math.MaxInt64

// Tree is an immutable rooted distribution tree. Construct one with a
// Builder (or decode one from JSON); a zero Tree is empty and invalid.
// The arrays are parallel, indexed by NodeID, and must not be modified.
// Exactly the leaves are clients.
//
// A built tree is a valid tree: every constructor (Builder, both JSON
// decoders, and core.ReadChunked, which builds with a Builder) checks
// what it builds, and Clone, Binarize and PieceTree copy or build from
// valid trees. Only an Editor may edit a built tree, and it checks
// every edit. Consumers therefore never walk a tree to validate it
// again (core.Instance.Validate checks only W and dmax).
type Tree struct {
	// Parents[j] is the parent of j, None for the root.
	Parents []NodeID
	// EdgeLens[j] is δj, the length of the edge to the parent. The
	// root's entry is whatever its source said (0 from a Builder);
	// use Dist for the paper's δr = +∞ convention.
	EdgeLens []int64
	// Reqs[j] is rj for clients, 0 for internal nodes.
	Reqs []int64
	// Labels[j] is the optional human-readable name of j. A tree in
	// which no node has a name keeps no labels: Labels has length 0
	// when every name is empty and Len() otherwise. Read it through
	// Label.
	Labels []string
	// The children of j are ChildList[ChildStart[j]:ChildStart[j+1]],
	// in ascending ID order; ChildStart has Len()+1 entries.
	ChildStart []int32
	ChildList  []NodeID
	// Pre lists the nodes parents before children, Post children
	// before parents, both visiting children in child-list order.
	Pre  []NodeID
	Post []NodeID

	root NodeID
}

// Flat is an alias of Tree, kept for importers that use the name.
type Flat = Tree

// Len returns the total number of nodes |C ∪ N|.
func (t *Tree) Len() int { return len(t.Parents) }

// Root returns the root node ID.
func (t *Tree) Root() NodeID { return t.root }

// Parent returns the parent of j, or None if j is the root.
func (t *Tree) Parent(j NodeID) NodeID { return t.Parents[j] }

// Children returns the children of j. The returned slice must not be
// modified.
func (t *Tree) Children(j NodeID) []NodeID {
	lo, hi := t.ChildStart[j], t.ChildStart[j+1]
	return t.ChildList[lo:hi:hi]
}

// NumChildren returns the number of children of j.
func (t *Tree) NumChildren(j NodeID) int { return int(t.ChildStart[j+1] - t.ChildStart[j]) }

// Dist returns δj, the length of the edge from j to its parent. For the
// root it returns Infinity, matching the paper's convention δr = +∞.
func (t *Tree) Dist(j NodeID) int64 {
	if j == t.root {
		return Infinity
	}
	return t.EdgeLens[j]
}

// Requests returns rj for a client, 0 for internal nodes.
func (t *Tree) Requests(j NodeID) int64 { return t.Reqs[j] }

// Label returns the optional label of j (may be empty).
func (t *Tree) Label(j NodeID) string {
	if len(t.Labels) == 0 {
		return ""
	}
	return t.Labels[j]
}

// addLabel records the label of node id, the node just appended: a
// tree keeps no labels until its first non-empty one, which fills in
// empty labels for the id nodes before it.
func (t *Tree) addLabel(id NodeID, label string) {
	if label == "" && len(t.Labels) == 0 {
		return
	}
	if len(t.Labels) < int(id) {
		t.Labels = append(t.Labels, make([]string, int(id)-len(t.Labels))...)
	}
	t.Labels = append(t.Labels, label)
}

// labelsAgree reports whether Labels has one of its two lengths, 0 or
// Len().
func (t *Tree) labelsAgree() bool {
	return len(t.Labels) == 0 || len(t.Labels) == len(t.Parents)
}

// IsClient reports whether j is a leaf (client) node.
func (t *Tree) IsClient(j NodeID) bool { return t.ChildStart[j] == t.ChildStart[j+1] }

// IsRoot reports whether j is the root.
func (t *Tree) IsRoot(j NodeID) bool { return j == t.root }

// Valid reports whether j is a valid node ID for this tree.
func (t *Tree) Valid(j NodeID) bool { return j >= 0 && int(j) < len(t.Parents) }

// Name returns the label of j if set, otherwise a synthetic "n<ID>"
// or "c<ID>" name.
func (t *Tree) Name(j NodeID) string {
	if l := t.Label(j); l != "" {
		return l
	}
	if t.IsClient(j) {
		return fmt.Sprintf("c%d", j)
	}
	return fmt.Sprintf("n%d", j)
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	c := new(Tree)
	FlattenInto(c, t)
	return c
}

// FlattenInto makes f a deep copy of t, reusing f's array capacity:
// once f has grown to a working set's size, the copy allocates
// nothing.
func FlattenInto(f, t *Tree) {
	f.Parents = append(f.Parents[:0], t.Parents...)
	f.EdgeLens = append(f.EdgeLens[:0], t.EdgeLens...)
	f.Reqs = append(f.Reqs[:0], t.Reqs...)
	f.Labels = append(f.Labels[:0], t.Labels...)
	f.ChildStart = append(f.ChildStart[:0], t.ChildStart...)
	f.ChildList = append(f.ChildList[:0], t.ChildList...)
	f.Pre = append(f.Pre[:0], t.Pre...)
	f.Post = append(f.Post[:0], t.Post...)
	f.root = t.root
}

// Validate checks the structural invariants of the tree: arrays of
// agreeing lengths, a single root, consistent parent/children links,
// acyclicity, non-negative edge lengths, clients exactly at the
// leaves, non-negative request counts that are zero on internal
// nodes, and stored visit orders that match the child index. A built
// tree always passes (see Tree), so Validate is the independent oracle
// that tests hold the constructors to, not a check consumers repeat.
func (t *Tree) Validate() error { return t.walk(false) }

// walk checks the invariants Validate lists, depth-first from the
// root in child order, and reports the first fault the walk reaches.
// With record set it writes the visit orders into Pre and Post, which
// must have Len() entries; otherwise it checks the stored ones. The
// walk keeps its path on the heap, not the goroutine stack: a
// path-shaped tree of a million nodes fits in a request body.
func (t *Tree) walk(record bool) error {
	n := len(t.Parents)
	if n == 0 {
		return errors.New("tree: empty tree")
	}
	if len(t.EdgeLens) != n || len(t.Reqs) != n || !t.labelsAgree() ||
		len(t.ChildStart) != n+1 || len(t.Pre) != n || len(t.Post) != n {
		return errors.New("tree: node arrays disagree in length")
	}
	if t.ChildStart[0] != 0 || int(t.ChildStart[n]) != len(t.ChildList) {
		return errors.New("tree: child index does not span the child list")
	}
	for j := 0; j < n; j++ {
		if t.ChildStart[j] > t.ChildStart[j+1] {
			return fmt.Errorf("tree: child index of node %d runs backwards", j)
		}
	}
	if !t.Valid(t.root) {
		return fmt.Errorf("tree: root %d out of range", t.root)
	}
	if t.Parents[t.root] != None {
		return fmt.Errorf("tree: root %d has a parent", t.root)
	}
	if t.IsClient(t.root) {
		return errors.New("tree: root must be an internal node (paper: r ∈ N)")
	}
	seen := make([]bool, n)
	// A stored order that disagrees is reported only once the
	// structure has passed: a structural fault changes the walk, and
	// it is the fault that should be named.
	var orderErr error
	pre, post := 0, 0
	order := func(stored []NodeID, i *int, j NodeID, name string) {
		if record {
			stored[*i] = j
		} else if stored[*i] != j && orderErr == nil {
			orderErr = fmt.Errorf("tree: stored %s has node %d at %d, the walk has %d", name, stored[*i], *i, j)
		}
		*i++
	}
	enter := func(j NodeID) error {
		if err := t.visit(j, seen); err != nil {
			return err
		}
		order(t.Pre, &pre, j, "preorder")
		if t.IsClient(j) {
			order(t.Post, &post, j, "postorder")
		}
		return nil
	}
	if err := enter(t.root); err != nil {
		return err
	}
	// next is the ChildList position of the next child to enter.
	type frame struct {
		j    NodeID
		next int32
	}
	stack := []frame{{j: t.root, next: t.ChildStart[t.root]}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		j := f.j
		if f.next == t.ChildStart[j+1] {
			stack = stack[:len(stack)-1]
			order(t.Post, &post, j, "postorder")
			continue
		}
		c := t.ChildList[f.next]
		f.next++
		if !t.Valid(c) {
			return fmt.Errorf("tree: node %d has out-of-range child %d", j, c)
		}
		if t.Parents[c] != j {
			return fmt.Errorf("tree: child %d of %d has parent %d", c, j, t.Parents[c])
		}
		if err := enter(c); err != nil {
			return err
		}
		if !t.IsClient(c) {
			stack = append(stack, frame{j: c, next: t.ChildStart[c]})
		}
	}
	for j := range seen {
		if !seen[j] {
			return fmt.Errorf("tree: node %d unreachable from root", j)
		}
	}
	return orderErr
}

// visit checks the node-local invariants of j on its first visit.
func (t *Tree) visit(j NodeID, seen []bool) error {
	if seen[j] {
		return fmt.Errorf("tree: node %d reached twice (cycle or shared child)", j)
	}
	seen[j] = true
	return t.local(j)
}

// local checks the invariants of j that involve no other node.
func (t *Tree) local(j NodeID) error {
	if r := t.Reqs[j]; r < 0 {
		return fmt.Errorf("tree: node %d has negative requests %d", j, r)
	}
	if j != t.root {
		if d := t.EdgeLens[j]; d < 0 {
			return fmt.Errorf("tree: node %d has negative edge length %d", j, d)
		} else if d == Infinity {
			return fmt.Errorf("tree: node %d has infinite edge length", j)
		}
	}
	// A leaf must be a client. (A request count of zero is allowed;
	// such clients are trivially satisfied.)
	if !t.IsClient(j) && t.Reqs[j] != 0 {
		return fmt.Errorf("tree: internal node %d has requests %d", j, t.Reqs[j])
	}
	return nil
}
