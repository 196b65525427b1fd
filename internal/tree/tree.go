// Package tree implements the distribution-tree substrate used by the
// replica placement algorithms: a rooted tree whose leaves are clients
// issuing requests and whose edges carry non-negative integer lengths.
//
// The representation is an index-based arena: nodes are identified by
// dense NodeIDs, which makes the algorithms allocation-free in their
// inner loops and keeps instances trivially serialisable.
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

// Node is a single tree node. Exactly the leaves are clients.
type Node struct {
	Parent   NodeID   // None for the root
	Children []NodeID // empty for clients
	Dist     int64    // δ: length of the edge to Parent (0 for the root)
	Requests int64    // r: request rate; 0 for internal nodes
	Label    string   // optional human-readable name
}

// Tree is an immutable rooted distribution tree. Construct one with a
// Builder; a zero Tree is empty and invalid.
type Tree struct {
	nodes []Node
	root  NodeID
}

// Len returns the total number of nodes |C ∪ N|.
func (t *Tree) Len() int { return len(t.nodes) }

// Root returns the root node ID.
func (t *Tree) Root() NodeID { return t.root }

// Parent returns the parent of j, or None if j is the root.
func (t *Tree) Parent(j NodeID) NodeID { return t.nodes[j].Parent }

// Children returns the children of j. The returned slice must not be
// modified.
func (t *Tree) Children(j NodeID) []NodeID { return t.nodes[j].Children }

// Dist returns δj, the length of the edge from j to its parent. For the
// root it returns Infinity, matching the paper's convention δr = +∞.
func (t *Tree) Dist(j NodeID) int64 {
	if j == t.root {
		return Infinity
	}
	return t.nodes[j].Dist
}

// Requests returns rj for a client, 0 for internal nodes.
func (t *Tree) Requests(j NodeID) int64 { return t.nodes[j].Requests }

// Label returns the optional label of j (may be empty).
func (t *Tree) Label(j NodeID) string { return t.nodes[j].Label }

// IsClient reports whether j is a leaf (client) node.
func (t *Tree) IsClient(j NodeID) bool { return len(t.nodes[j].Children) == 0 }

// IsRoot reports whether j is the root.
func (t *Tree) IsRoot(j NodeID) bool { return j == t.root }

// Valid reports whether j is a valid node ID for this tree.
func (t *Tree) Valid(j NodeID) bool { return j >= 0 && int(j) < len(t.nodes) }

// Name returns the label of j if set, otherwise a synthetic "n<ID>"
// or "c<ID>" name.
func (t *Tree) Name(j NodeID) string {
	if l := t.nodes[j].Label; l != "" {
		return l
	}
	if t.IsClient(j) {
		return fmt.Sprintf("c%d", j)
	}
	return fmt.Sprintf("n%d", j)
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	nodes := make([]Node, len(t.nodes))
	copy(nodes, t.nodes)
	for i := range nodes {
		if len(nodes[i].Children) > 0 {
			c := make([]NodeID, len(nodes[i].Children))
			copy(c, nodes[i].Children)
			nodes[i].Children = c
		}
	}
	return &Tree{nodes: nodes, root: t.root}
}

// Validate checks the structural invariants of the tree:
// a single root, consistent parent/children links, acyclicity,
// non-negative edge lengths, clients exactly at the leaves, and
// non-negative request counts that are zero on internal nodes.
func (t *Tree) Validate() error {
	if len(t.nodes) == 0 {
		return errors.New("tree: empty tree")
	}
	if !t.Valid(t.root) {
		return fmt.Errorf("tree: root %d out of range", t.root)
	}
	if t.nodes[t.root].Parent != None {
		return fmt.Errorf("tree: root %d has a parent", t.root)
	}
	if len(t.nodes[t.root].Children) == 0 {
		return errors.New("tree: root must be an internal node (paper: r ∈ N)")
	}
	seen := make([]bool, len(t.nodes))
	if err := t.visit(t.root, seen); err != nil {
		return err
	}
	// Depth-first from the root, in child order. The walk keeps its
	// path on the heap, not the goroutine stack: a path-shaped tree of
	// a million nodes fits in a request body.
	type frame struct {
		j    NodeID
		next int32 // index of the next child to enter
	}
	stack := []frame{{j: t.root}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		j, kids := f.j, t.nodes[f.j].Children
		if int(f.next) == len(kids) {
			stack = stack[:len(stack)-1]
			continue
		}
		c := kids[f.next]
		f.next++
		if !t.Valid(c) {
			return fmt.Errorf("tree: node %d has out-of-range child %d", j, c)
		}
		if t.nodes[c].Parent != j {
			return fmt.Errorf("tree: child %d of %d has parent %d", c, j, t.nodes[c].Parent)
		}
		if err := t.visit(c, seen); err != nil {
			return err
		}
		if len(t.nodes[c].Children) > 0 {
			stack = append(stack, frame{j: c})
		}
	}
	for j := range seen {
		if !seen[j] {
			return fmt.Errorf("tree: node %d unreachable from root", j)
		}
	}
	return nil
}

// visit checks the node-local invariants of j on its first visit.
func (t *Tree) visit(j NodeID, seen []bool) error {
	if seen[j] {
		return fmt.Errorf("tree: node %d reached twice (cycle or shared child)", j)
	}
	seen[j] = true
	n := &t.nodes[j]
	if n.Requests < 0 {
		return fmt.Errorf("tree: node %d has negative requests %d", j, n.Requests)
	}
	if j != t.root {
		if n.Dist < 0 {
			return fmt.Errorf("tree: node %d has negative edge length %d", j, n.Dist)
		}
		if n.Dist == Infinity {
			return fmt.Errorf("tree: node %d has infinite edge length", j)
		}
	}
	// A leaf must be a client. (A request count of zero is allowed;
	// such clients are trivially satisfied.)
	if len(n.Children) > 0 && n.Requests != 0 {
		return fmt.Errorf("tree: internal node %d has requests %d", j, n.Requests)
	}
	return nil
}
