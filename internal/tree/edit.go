package tree

import "fmt"

// Editor mutates a private clone of a Tree in place. Trees are
// documented immutable — every consumer may hold aliases into one —
// so mutation is only safe on a copy with a single owner; Editor
// enforces that ownership by cloning at construction.
//
// The supported mutations are exactly the ones that keep node IDs
// dense and stable: new leaves are appended (IDs only grow), request
// rates and edge lengths are overwritten in place, and nothing is
// ever removed (callers model client removal by zeroing the rate).
// That stability is what lets incremental solvers keep per-NodeID
// state across mutations.
//
// Every mutation validates its local invariant (the ones
// Tree.Validate checks globally), so the edited tree is valid after
// every successful call. Appended leaves enter the child index and
// the visit orders at the next Tree call, in one pass for however
// many were added: AddLeaf itself is amortised O(1).
type Editor struct {
	t *Tree
	// indexed is the node count the child index and orders cover;
	// nodes from indexed on are leaves added since.
	indexed int
}

// NewEditor returns an Editor over a private clone of t.
func NewEditor(t *Tree) *Editor {
	c := t.Clone()
	return &Editor{t: c, indexed: c.Len()}
}

// Len returns the node count of the edited tree.
func (e *Editor) Len() int { return e.t.Len() }

// Tree returns the edited tree, with its child index and visit orders
// brought up to date. The pointer is stable across mutations
// (mutations happen in place), but a tree held across AddLeaf is
// indexed again only by the next Tree call; callers that key caches
// on tree identity must account for that.
func (e *Editor) Tree() *Tree {
	if e.indexed < e.t.Len() {
		if err := e.t.link(); err != nil {
			panic("tree: edit broke the tree: " + err.Error())
		}
		e.indexed = e.t.Len()
	}
	return e.t
}

// isClient is Tree.IsClient, including leaves not indexed yet.
func (e *Editor) isClient(j NodeID) bool { return int(j) >= e.indexed || e.t.IsClient(j) }

// AddLeaf appends a new client with the given rate under parent,
// returning its ID (always the previous Len). The parent must be an
// existing internal node: attaching under a client would turn it
// into an internal node and silently drop its own requests.
func (e *Editor) AddLeaf(parent NodeID, dist, requests int64, label string) (NodeID, error) {
	t := e.t
	if !t.Valid(parent) {
		return None, fmt.Errorf("tree: edit: unknown parent %d", parent)
	}
	if e.isClient(parent) {
		return None, fmt.Errorf("tree: edit: parent %d is a client; leaves attach to internal nodes only", parent)
	}
	if dist < 0 || dist == Infinity {
		return None, fmt.Errorf("tree: edit: invalid edge length %d", dist)
	}
	if requests < 0 {
		return None, fmt.Errorf("tree: edit: negative requests %d", requests)
	}
	if t.Len() >= maxNodes {
		return None, fmt.Errorf("tree: edit: too many nodes")
	}
	id := NodeID(t.Len())
	t.Parents = append(t.Parents, parent)
	t.EdgeLens = append(t.EdgeLens, dist)
	t.Reqs = append(t.Reqs, requests)
	t.addLabel(id, label)
	return id, nil
}

// SetRequests overwrites the request rate of client j. Zero is
// allowed — a zero-rate client is served vacuously — which is how
// removal is modelled without renumbering IDs.
func (e *Editor) SetRequests(j NodeID, requests int64) error {
	t := e.t
	if !t.Valid(j) {
		return fmt.Errorf("tree: edit: unknown node %d", j)
	}
	if !e.isClient(j) {
		return fmt.Errorf("tree: edit: node %d is internal; only clients carry requests", j)
	}
	if requests < 0 {
		return fmt.Errorf("tree: edit: negative requests %d", requests)
	}
	t.Reqs[j] = requests
	return nil
}

// SetEdgeLen overwrites δj, the length of the edge from j to its
// parent. The root has no such edge.
func (e *Editor) SetEdgeLen(j NodeID, dist int64) error {
	t := e.t
	if !t.Valid(j) {
		return fmt.Errorf("tree: edit: unknown node %d", j)
	}
	if j == t.root {
		return fmt.Errorf("tree: edit: the root has no parent edge")
	}
	if dist < 0 || dist == Infinity {
		return fmt.Errorf("tree: edit: invalid edge length %d", dist)
	}
	t.EdgeLens[j] = dist
	return nil
}
